package replay

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// The per-instruction trr1 model: the record interpreter and the encoder as
// they were when a Trace was delivered and recorded as isa.Inst batches, kept
// as the oracle the lane decoder (reader.fill) and the lane encoder
// (Recorder.ConsumeLane) are held to. They share no code with either.

// modelFill decodes records into buf and returns how many: it stops when buf
// is full, when the stream's count is reached, or before the first record
// whose Serial flag differs from buf[0]'s.
func (r *reader) modelFill(buf []isa.Inst) (int, error) {
	body, next := r.body, r.next
	limit := min(len(buf), r.n-r.i)
	var phase byte
	k, p := 0, 0
	for k < limit {
		if len(body)-p < 2 {
			return k, fmt.Errorf("replay: truncated at instruction %d", r.i+k)
		}
		flags, size := body[p], body[p+1]
		if k == 0 {
			phase = flags & flagSerial
		} else if flags&flagSerial != phase {
			break
		}
		p += 2
		if flags&^(kindMask|flagTaken|flagSerial|flagSeqPC) != 0 {
			return k, fmt.Errorf("replay: reserved flag bits set at instruction %d", r.i+k)
		}
		kind := isa.Kind(flags & kindMask)
		if int(kind) >= isa.NumKinds {
			return k, fmt.Errorf("replay: invalid kind %d at instruction %d", kind, r.i+k)
		}
		if size == 0 {
			return k, fmt.Errorf("replay: zero size at instruction %d", r.i+k)
		}
		in := &buf[k]
		*in = isa.Inst{PC: next, Size: size, Kind: kind, Taken: flags&flagTaken != 0, Serial: phase != 0}
		if flags&flagSeqPC == 0 {
			pc, w := binary.Uvarint(body[p:])
			if w <= 0 {
				return k, fmt.Errorf("replay: bad PC at instruction %d", r.i+k)
			}
			p += w
			in.PC = isa.Addr(pc)
		} else if r.i+k == 0 {
			return k, fmt.Errorf("replay: first instruction marked sequential")
		}
		if kind.IsBranch() {
			delta, w := binary.Varint(body[p:])
			if w <= 0 {
				return k, fmt.Errorf("replay: bad target at instruction %d", r.i+k)
			}
			p += w
			in.Target = isa.Addr(int64(in.PC) + delta)
		} else if in.Taken {
			return k, fmt.Errorf("replay: non-branch marked taken at instruction %d", r.i+k)
		}
		next = in.NextPC()
		k++
	}
	r.body, r.next, r.i = body[p:], next, r.i+k
	return k, nil
}

// modelDecode is Decode over modelFill: the payload's instruction batches at
// the given size, or the error that rejects it.
func modelDecode(data []byte, size int) ([][]isa.Inst, error) {
	if len(data) < len(encMagic) || string(data[:len(encMagic)]) != encMagic {
		return nil, fmt.Errorf("replay: bad trace magic")
	}
	body := data[len(encMagic):]
	count, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, fmt.Errorf("replay: bad instruction count")
	}
	body = body[w:]
	if count > uint64(len(body))/2 {
		return nil, fmt.Errorf("replay: instruction count %d exceeds payload", count)
	}
	r := reader{body: body, n: int(count)}
	var batches [][]isa.Inst
	for r.i < r.n {
		buf := make([]isa.Inst, size)
		k, err := r.modelFill(buf)
		if err != nil {
			return nil, err
		}
		batches = append(batches, buf[:k])
	}
	if len(r.body) != 0 {
		return nil, fmt.Errorf("replay: %d trailing bytes after %d instructions", len(r.body), count)
	}
	return batches, nil
}

// modelRecord is the per-instruction trr1 encoder: the body a Recorder must
// hold after observing the stream.
func modelRecord(stream []isa.Inst) []byte {
	var body []byte
	var next isa.Addr
	for n := range stream {
		in := &stream[n]
		flags := byte(in.Kind) & kindMask
		if in.Serial {
			flags |= flagSerial
		}
		seq := n != 0 && in.PC == next
		if seq {
			flags |= flagSeqPC
		}
		next = in.PC + isa.Addr(in.Size)
		branch := flags&kindMask != 0
		if branch && in.Taken {
			flags |= flagTaken
			next = in.Target
		}
		body = append(body, flags, in.Size)
		if !seq {
			body = binary.AppendUvarint(body, uint64(in.PC))
		}
		if branch {
			body = binary.AppendVarint(body, int64(in.Target)-int64(in.PC))
		}
	}
	return body
}

// checkLane holds a lane to the source invariants: between one and max
// instructions, a size for each, and runs that — once the cuts a source may
// make between contiguous branchless runs are undone — are exactly the
// maximal runs of the lane's own expansion, field for field.
func checkLane(l *isa.Lane, max int) error {
	if l.Insts < 1 || l.Insts > max || len(l.Sizes) != l.Insts {
		return fmt.Errorf("%d instructions with %d sizes, want 1..%d of each", l.Insts, len(l.Sizes), max)
	}
	var joined []isa.Run
	insts := 0
	for _, r := range l.Runs {
		insts += int(r.Insts)
		if n := len(joined); n > 0 && joined[n-1].Kind == isa.KindOther && joined[n-1].Start+isa.Addr(joined[n-1].Bytes) == r.Start {
			r.Start, r.Bytes, r.Insts = joined[n-1].Start, r.Bytes+joined[n-1].Bytes, r.Insts+joined[n-1].Insts
			joined = joined[:n-1]
		}
		joined = append(joined, r)
	}
	if insts != l.Insts {
		return fmt.Errorf("runs hold %d instructions, the lane %d", insts, l.Insts)
	}
	if want := trace.Scan(trace.Expand(l, nil), nil); !slices.Equal(joined, want) {
		return fmt.Errorf("runs %+v do not describe the lane's instructions, whose maximal runs are %+v", l.Runs, want)
	}
	return nil
}

// laneBatches is a lane consumer that checks every lane it is handed and
// keeps its expansion.
type laneBatches struct {
	t       testing.TB
	size    int
	batches [][]isa.Inst
}

func (c *laneBatches) Observe(isa.Inst) { panic("lane path expected") }

func (c *laneBatches) ConsumeLane(l *isa.Lane) {
	if err := checkLane(l, c.size); err != nil {
		c.t.Fatalf("delivered lane %d: %v", len(c.batches), err)
	}
	c.batches = append(c.batches, trace.Expand(l, nil))
}

// decodeBoth decodes a payload with the lane decoder and with the model, at
// one batch size, and fails unless they agree: both reject, or both accept
// and deliver the same instruction batches.
func decodeBoth(t testing.TB, data []byte, size int) {
	t.Helper()
	want, wantErr := modelDecode(data, size)
	tr, err := Decode(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("lane decoder says %v, the instruction model %v", err, wantErr)
	}
	if err != nil {
		return
	}
	got := &laneBatches{t: t, size: size}
	if err := Deliver(context.Background(), tr, size, got); err != nil {
		t.Fatalf("Deliver of a decoded trace: %v", err)
	}
	if len(got.batches) != len(want) {
		t.Fatalf("batchSize %d: %d lanes, the model cuts %d batches", size, len(got.batches), len(want))
	}
	for i := range want {
		if !slices.Equal(got.batches[i], want[i]) {
			t.Fatalf("batchSize %d: lane %d expands to a different batch than the model decodes", size, i)
		}
	}
}

// modelStreams are recorded streams of both built-in workloads and the
// branchiest synth scenario, with the instructions a live observer saw.
func modelStreams(t testing.TB) map[string][]isa.Inst {
	streams := map[string][]isa.Inst{"hand": handStream(), "edges": phaseStream(7, 7, 1, 13, 4068, 4096, 9000)}
	for _, name := range workload.Names() {
		_, streams[name] = recordLive(t, name, 3, 30_000)
	}
	var len1 []isa.Inst
	grab := trace.ObserverFunc(func(in isa.Inst) { len1 = append(len1, in) })
	if err := trace.Run(synth.MustBuild(synth.Params{Name: "trr1-len1", BlockLen: 1}), 3, 30_000, grab); err != nil {
		t.Fatal(err)
	}
	streams["synth-len1"] = len1
	return streams
}

// TestLaneDecoderMatchesInstructionModel: on every recorded stream, and on
// every single-byte mutation of a short one, the lane decoder and the
// per-instruction model agree on error or stream — so a hostile payload is
// still only ever a miss. FuzzDecodeDeliver holds the same agreement on
// arbitrary payloads.
func TestLaneDecoderMatchesInstructionModel(t *testing.T) {
	for name, stream := range modelStreams(t) {
		data := Encode(recordInsts(stream))
		for _, size := range []int{1, 7, 4096} {
			t.Run(fmt.Sprintf("%s/%d", name, size), func(t *testing.T) { decodeBoth(t, data, size) })
		}
	}
	for _, tc := range structuralViolations() {
		t.Run(tc.name, func(t *testing.T) { decodeBoth(t, tc.data, 3) })
	}
	valid := Encode(recordInsts(handStream()))
	for i := range valid {
		for _, b := range []byte{0x01, 0x08, 0x10, 0x20, 0x80, 0xff} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= b
			decodeBoth(t, mut, 3)
		}
	}
}

// TestLaneRecorderMatchesInstructionModel: a Recorder fed lanes — by the
// compiled engine, by Deliver at every cut, one instruction at a time — holds
// byte for byte what the per-instruction encoder writes for the stream.
func TestLaneRecorderMatchesInstructionModel(t *testing.T) {
	for name, stream := range modelStreams(t) {
		want := modelRecord(stream)
		tr := recordInsts(stream) // one instruction per lane
		if tr.Len() != len(stream) || !bytes.Equal(tr.body, want) {
			t.Fatalf("%s: recorded instruction by instruction, the trace differs from the model's bytes", name)
		}
		for _, size := range []int{1, 7, 4096} {
			rec := NewRecorder()
			if err := Deliver(context.Background(), tr, size, rec); err != nil {
				t.Fatal(err)
			}
			if again := rec.Trace(); again.Len() != len(stream) || !bytes.Equal(again.body, want) {
				t.Errorf("%s: re-recorded from lanes of %d, the trace differs from the model's bytes", name, size)
			}
		}
	}
	for _, name := range workload.Names() {
		live, stream := recordLive(t, name, 9, 60_000) // lanes as the executor renders them
		if !bytes.Equal(live.body, modelRecord(stream)) {
			t.Errorf("%s: recorded from the executor's lanes, the trace differs from the model's bytes", name)
		}
	}
}

// TestDeliverToLaneConsumersBuildsNoBatch bounds Deliver in a
// machine-independent unit: with only lane consumers attached it allocates
// the lane, never the 32 bytes per instruction of an expanded batch.
func TestDeliverToLaneConsumersBuildsNoBatch(t *testing.T) {
	tr := recordWorkload(t, "xalan-lite", 1, 200_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := Deliver(context.Background(), tr, trace.BatchSize, nopLanes{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(trace.BatchSize*32); got >= limit {
		t.Errorf("Deliver to a lane consumer allocated %d bytes, want less than one instruction batch (%d)", got, limit)
	}
}
