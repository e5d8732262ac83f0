package replay

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// handStream is a small hand-built stream exercising every instruction
// kind, both phases, sequential and non-sequential PCs, forward and
// backward targets, and address extremes — the corner cases the codec's
// flag byte and delta encoding must round-trip exactly.
func handStream() []isa.Inst {
	return []isa.Inst{
		{PC: 0x400000, Size: 4, Kind: isa.KindOther, Serial: true},
		{PC: 0x400004, Size: 1, Kind: isa.KindOther, Serial: true}, // sequential
		{PC: 0x400005, Size: 2, Kind: isa.KindCondDirect, Taken: true, Target: 0x400000, Serial: true},
		{PC: 0x400000, Size: 4, Kind: isa.KindOther, Serial: true},                                      // sequential via taken target
		{PC: 0x400004, Size: 2, Kind: isa.KindCondDirect, Taken: false, Target: 0x400000, Serial: true}, // not-taken keeps its target
		{PC: 0x400006, Size: 5, Kind: isa.KindCall, Taken: true, Target: 0x500000},
		{PC: 0x500000, Size: 3, Kind: isa.KindSyscall, Taken: false, Target: 0},
		{PC: 0x500003, Size: 1, Kind: isa.KindReturn, Taken: true, Target: 0x40000b},
		{PC: 0x40000b, Size: 7, Kind: isa.KindUncondDirect, Taken: true, Target: 0x400100},
		{PC: 0x400100, Size: 2, Kind: isa.KindIndirectBranch, Taken: true, Target: 0x400200},
		{PC: 0x400200, Size: 6, Kind: isa.KindIndirectCall, Taken: true, Target: 0x500000},
		{PC: 0, Size: 1, Kind: isa.KindOther},                                                              // PC zero, non-sequential
		{PC: ^isa.Addr(0) - 15, Size: 15, Kind: isa.KindOther},                                             // address-space extreme
		{PC: 0x600000, Size: 2, Kind: isa.KindCondDirect, Taken: true, Target: ^isa.Addr(0), Serial: true}, // max forward delta
	}
}

// phaseStream is sequential filler whose phase flips after each of the
// given run lengths: phase changes wherever a test needs them, inside a
// replay batch or exactly on its edge.
func phaseStream(runs ...int) []isa.Inst {
	var insts []isa.Inst
	pc := isa.Addr(0x1000)
	for r, n := range runs {
		for i := 0; i < n; i++ {
			insts = append(insts, isa.Inst{PC: pc, Size: 4, Kind: isa.KindOther, Serial: r%2 == 0})
			pc += 4
		}
	}
	return insts
}

// recordInsts materializes a hand-built stream the way every Trace is
// built: through a Recorder, here one instruction at a time.
func recordInsts(insts []isa.Inst) *Trace {
	rec := NewRecorder()
	for _, in := range insts {
		rec.Observe(in)
	}
	return rec.Trace()
}

// recordLive materializes a real generated stream — the named workload
// compiled and run for target instructions on the compiled engine — and
// returns it beside the per-instruction sequence a live observer of the
// same run saw.
func recordLive(t testing.TB, name string, seed uint64, target int64) (*Trace, []isa.Inst) {
	t.Helper()
	p, err := workload.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	var live []isa.Inst
	rec := NewRecorder()
	if err := trace.Run(p, seed, target, trace.ObserverFunc(func(in isa.Inst) { live = append(live, in) }), rec); err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), live
}

func recordWorkload(t testing.TB, name string, seed uint64, target int64) *Trace {
	t.Helper()
	tr, _ := recordLive(t, name, seed, target)
	return tr
}

// delivered replays tr at the given batch size and returns each batch's
// length, whether any batch mixed phases, and the concatenated stream.
func delivered(t testing.TB, tr *Trace, size int) *batchRecorder {
	t.Helper()
	rec := &batchRecorder{}
	if err := Deliver(context.Background(), tr, size, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, workloadInsts := recordLive(t, "comd-lite", 1, 50_000)
	for _, tc := range []struct {
		name  string
		insts []isa.Inst
	}{
		{"hand", handStream()},
		{"empty", nil},
		{"workload", workloadInsts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := recordInsts(tc.insts)
			enc := Encode(tr)
			// The resident form is the disk form: the payload is a header
			// in front of the very bytes the trace holds.
			header := binary.AppendUvarint([]byte(encMagic), uint64(len(tc.insts)))
			if !bytes.Equal(enc[:len(header)], header) || !bytes.Equal(enc[len(header):], tr.body) {
				t.Fatal("Encode is not the trr1 header followed by the resident records")
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.Len() != len(tc.insts) {
				t.Fatalf("decoded %d instructions, want %d", got.Len(), len(tc.insts))
			}
			for _, size := range []int{1, 7, 4096} {
				want, redelivered := delivered(t, tr, size), delivered(t, got, size)
				if !slices.Equal(redelivered.all, tc.insts) {
					t.Fatalf("batchSize %d: decoded trace delivers a different stream than was recorded", size)
				}
				if !slices.Equal(redelivered.lens, want.lens) {
					t.Fatalf("batchSize %d: batches %v after the round trip, %v before", size, redelivered.lens, want.lens)
				}
			}
		})
	}
}

// TestEncodeIsCompact pins the codec's reason to exist: a real stream must
// encode far below the 32 bytes per instruction of its expanded form (the
// budget both store tiers and any future trace shipping pay).
func TestEncodeIsCompact(t *testing.T) {
	tr := recordWorkload(t, "comd-lite", 1, 100_000)
	enc := Encode(tr)
	perInst := float64(len(enc)) / float64(tr.Len())
	if perInst > 4 {
		t.Errorf("encoding costs %.2f bytes/instruction, want <= 4 (total %d bytes for %d insts)", perInst, len(enc), tr.Len())
	}
}

// structuralViolations is one payload per rule of the strict decoder, with
// a word its error must mention.
func structuralViolations() []struct {
	name string
	data []byte
	want string
} {
	valid := Encode(recordInsts(handStream()))
	mutate := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	return []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }), "magic"},
		{"truncated header", []byte("trr1"), "count"},
		{"truncated body", mutate(func(b []byte) []byte { return b[:len(b)-3] }), "at instruction"},
		{"trailing bytes", mutate(func(b []byte) []byte { return append(b, 0) }), "trailing"},
		{"count exceeds payload", append([]byte("trr1"), 0xff, 0xff, 0x7f), "exceeds payload"},
		{"first inst sequential", append([]byte("trr1"), 1, flagSeqPC, 4), "first instruction"},
		{"zero size", append([]byte("trr1"), 1, 0, 0, 5), "zero size"},
		{"reserved flags", append([]byte("trr1"), 1, 0x80, 4, 5), "reserved flag"},
		{"non-branch taken", append([]byte("trr1"), 1, flagTaken, 4, 5), "marked taken"},
	}
}

func TestDecodeRejectsStructuralViolations(t *testing.T) {
	for _, tc := range structuralViolations() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatal("Decode accepted a structurally invalid payload")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// FuzzDecodeDeliver: the lane decoder and the per-instruction trr1 model
// (model_test.go) agree on every payload — both reject it, or both deliver
// the same stream in lanes that hold their invariants — and whatever payload
// the strict decoder accepts replays: exactly Len() instructions, no error,
// no panic, in batches no longer than asked and never mixing phases. Decode
// is the only gate between a checksum-valid file and Deliver, so everything
// Deliver relies on has to be established there.
func FuzzDecodeDeliver(f *testing.F) {
	f.Add(Encode(recordInsts(handStream())), 7)
	f.Add(Encode(recordWorkload(f, "xalan-lite", 2, 500)), 64)
	for _, tc := range structuralViolations() {
		f.Add(tc.data, 3)
	}
	// An explicit PC that continues the open run, and one that does not.
	f.Add(append([]byte("trr1"), 3, 0, 4, 0x10, 0, 4, 0x14, 0, 4, 0x30), 2)
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		size = 1 + (size&0xffff)%5000
		decodeBoth(t, data, size)
		tr, err := Decode(data)
		if err != nil {
			return
		}
		rec := delivered(t, tr, size)
		if len(rec.all) != tr.Len() {
			t.Fatalf("delivered %d instructions from a trace of %d", len(rec.all), tr.Len())
		}
		if rec.mixed {
			t.Fatal("a delivered batch mixed serial and parallel instructions")
		}
		for _, n := range rec.lens {
			if n < 1 || n > size {
				t.Fatalf("delivered a %d-instruction batch at batchSize %d", n, size)
			}
		}
		// The Recorder's domain is the decoder's: re-recording what was
		// delivered loses nothing.
		if again := delivered(t, recordInsts(rec.all), size); !slices.Equal(again.all, rec.all) {
			t.Fatal("re-recording the delivered stream changed it")
		}
	})
}

// batchRecorder is a batch observer that keeps each delivered batch's
// length and phase and the concatenated stream.
type batchRecorder struct {
	lens  []int
	all   []isa.Inst
	mixed bool
}

func (b *batchRecorder) Observe(isa.Inst) { panic("batch path expected") }
func (b *batchRecorder) ObserveBatch(batch []isa.Inst) {
	b.lens = append(b.lens, len(batch))
	for i := range batch {
		if batch[i].Serial != batch[0].Serial {
			b.mixed = true
		}
	}
	b.all = append(b.all, batch...)
}

// greedyCuts is the batching rule stated over the flat stream: as many
// instructions as fit in size, ending before the first phase change.
func greedyCuts(insts []isa.Inst, size int) []int {
	var lens []int
	for start := 0; start < len(insts); {
		n := 1
		for n < size && start+n < len(insts) && insts[start+n].Serial == insts[start].Serial {
			n++
		}
		lens = append(lens, n)
		start += n
	}
	return lens
}

func TestDeliverBatchesRespectPhaseBoundaries(t *testing.T) {
	generated, live := recordLive(t, "comd-lite", 3, 30_000)
	// Phase changes on batch edges (7, 14, 4096, 8192) and inside batches
	// (15, 28), and a run longer than any batch.
	edges := phaseStream(7, 7, 1, 13, 4068, 4096, 9000)
	alternating := phaseStream(1, 1, 1, 1, 1, 1, 1, 1, 1)
	for _, tc := range []struct {
		name string
		tr   *Trace
		want []isa.Inst
	}{
		{"workload", generated, live},
		{"hand", recordInsts(handStream()), handStream()},
		{"edges", recordInsts(edges), edges},
		{"alternating", recordInsts(alternating), alternating},
	} {
		for _, size := range []int{1, 7, 4096} {
			rec := delivered(t, tc.tr, size)
			if rec.mixed {
				t.Fatalf("%s, batchSize %d: a delivered batch mixed serial and parallel instructions", tc.name, size)
			}
			if !slices.Equal(rec.lens, greedyCuts(tc.want, size)) {
				t.Fatalf("%s, batchSize %d: batch lengths differ from full batches cut only at phase changes", tc.name, size)
			}
			if !slices.Equal(rec.all, tc.want) {
				t.Fatalf("%s, batchSize %d: delivered stream differs from the recorded one", tc.name, size)
			}
		}
	}
}

// TestDeliverMatchesLiveObservation is the package-local equivalence
// check: an observer fed by Deliver must see the exact per-instruction
// sequence a live executor run delivers, whatever the replay batch size.
func TestDeliverMatchesLiveObservation(t *testing.T) {
	tr, live := recordLive(t, "xalan-lite", 7, 40_000)
	for _, size := range []int{1, 7, 4096} {
		var replayed []isa.Inst
		if err := Deliver(context.Background(), tr, size, trace.ObserverFunc(func(in isa.Inst) { replayed = append(replayed, in) })); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(replayed, live) {
			t.Fatalf("batchSize %d: replayed per-instruction sequence differs from the live run", size)
		}
	}
}

func TestDeliverCancellation(t *testing.T) {
	tr := recordWorkload(t, "comd-lite", 1, 50_000)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	obs := trace.ObserverFunc(func(isa.Inst) {
		seen++
		if seen == 100 {
			cancel()
		}
	})
	err := Deliver(ctx, tr, 64, obs)
	if err != context.Canceled {
		t.Fatalf("Deliver under a cancelled context = %v, want context.Canceled", err)
	}
	if seen >= tr.Len() {
		t.Fatal("cancellation did not stop the replay early")
	}
}

func TestRecorderCapturesBothEngines(t *testing.T) {
	p, err := workload.Build("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	compiled := NewRecorder()
	e := trace.NewExecutor(p, 5)
	e.Attach(compiled)
	if err := e.Run(25_000); err != nil {
		t.Fatal(err)
	}
	reference := NewRecorder()
	e2 := trace.NewExecutor(p, 5)
	e2.Attach(reference)
	if err := e2.RunReference(25_000); err != nil {
		t.Fatal(err)
	}
	ct, rt := compiled.Trace(), reference.Trace()
	if int64(ct.Len()) != e.Emitted() {
		t.Fatalf("compiled recorder captured %d instructions, executor emitted %d", ct.Len(), e.Emitted())
	}
	if ct.Len() != rt.Len() || !bytes.Equal(ct.body, rt.body) {
		t.Fatal("recorded streams differ across engines; the trace key's engine-independence rests on them being identical")
	}
}
