package trace_test

import (
	"reflect"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// grabStream materializes a workload's stream, whole and as the batches the
// compiled engine cut it into.
func grabStream(t testing.TB, name string, insts int64) (stream []isa.Inst, batches [][]isa.Inst) {
	t.Helper()
	e := trace.NewExecutor(workload.MustBuild(name), 9)
	e.Attach(batchFunc(func(b []isa.Inst) {
		batches = append(batches, append([]isa.Inst(nil), b...))
		stream = append(stream, b...)
	}))
	if err := e.Run(insts); err != nil {
		t.Fatal(err)
	}
	return stream, batches
}

// batchFunc adapts a function to both observer interfaces.
type batchFunc func(batch []isa.Inst)

func (f batchFunc) Observe(in isa.Inst)           { f([]isa.Inst{in}) }
func (f batchFunc) ObserveBatch(batch []isa.Inst) { f(batch) }

// scanCases are batches with every way a run can end, plus real ones.
func scanCases(t *testing.T) map[string][]isa.Inst {
	other := func(pc isa.Addr, size uint8) isa.Inst { return isa.Inst{PC: pc, Size: size} }
	br := func(pc isa.Addr, kind isa.Kind, taken bool, target isa.Addr) isa.Inst {
		return isa.Inst{PC: pc, Size: 2, Kind: kind, Taken: taken, Target: target}
	}
	cases := map[string][]isa.Inst{
		"one instruction":     {other(0x100, 4)},
		"one branch":          {br(0x100, isa.KindReturn, true, 0x80)},
		"straight line":       {other(0x100, 4), other(0x104, 15), other(0x113, 1)},
		"not-taken then on":   {other(0x100, 4), br(0x104, isa.KindCondDirect, false, 0x80), other(0x106, 4)},
		"taken to next pc":    {br(0x100, isa.KindUncondDirect, true, 0x102), other(0x102, 4)},
		"back-to-back":        {br(0x100, isa.KindCall, true, 0x200), br(0x200, isa.KindReturn, true, 0x102), br(0x102, isa.KindSyscall, false, 0)},
		"discontinuity":       {other(0x100, 4), other(0x104, 4), other(0x100, 4), other(0x300, 4), other(0x304, 4)},
		"gap of one byte":     {other(0x100, 4), other(0x105, 4)},
		"overlap":             {other(0x100, 4), other(0x102, 4)},
		"ends in open run":    {br(0x100, isa.KindCondDirect, true, 0x80), other(0x80, 4), other(0x84, 4)},
		"taken flag on other": {{PC: 0x100, Size: 4, Taken: true, Target: 0x80}, other(0x104, 4)},
	}
	for _, name := range workload.Names() {
		_, batches := grabStream(t, name, 40_000)
		cases[name+" first batch"], cases[name+" last batch"] = batches[0], batches[len(batches)-1]
	}
	return cases
}

// TestScanInvariants checks, batch by batch, what every lane consumer
// relies on: the runs partition the batch, each is contiguous and holds at
// most one branch, its last instruction, and a run starts only where one
// must.
func TestScanInvariants(t *testing.T) {
	for name, batch := range scanCases(t) {
		runs := trace.Scan(batch, nil)
		i := 0
		for k, r := range runs {
			if r.Insts == 0 || i+int(r.Insts) > len(batch) {
				t.Fatalf("%s: run %d holds %d instructions at batch offset %d of %d", name, k, r.Insts, i, len(batch))
			}
			span := batch[i : i+int(r.Insts)]
			last := span[len(span)-1]
			if r.Start != span[0].PC || r.PC != last.PC || r.Kind != last.Kind {
				t.Errorf("%s: run %d = %+v does not describe %+v .. %+v", name, k, r, span[0], last)
			}
			if want := (isa.Run{Start: r.Start, PC: r.PC, Bytes: r.Bytes, Insts: r.Insts}); !last.Kind.IsBranch() && r != want {
				t.Errorf("%s: run %d ended by no branch carries one's outcome: %+v", name, k, r)
			}
			if last.Kind.IsBranch() && (r.Taken != last.Taken || r.Target != last.Target) {
				t.Errorf("%s: run %d = %+v loses its branch's outcome %+v", name, k, r, last)
			}
			var bytes uint32
			for j, in := range span {
				if j > 0 && in.PC != span[j-1].PC+isa.Addr(span[j-1].Size) {
					t.Errorf("%s: run %d is not contiguous at instruction %d", name, k, j)
				}
				if j < len(span)-1 && in.Kind.IsBranch() {
					t.Errorf("%s: run %d holds a branch before its last instruction", name, k)
				}
				bytes += uint32(in.Size)
			}
			if r.Bytes != bytes {
				t.Errorf("%s: run %d covers %d bytes, its instructions %d", name, k, r.Bytes, bytes)
			}
			if i > 0 {
				prev := batch[i-1]
				if !prev.Kind.IsBranch() && span[0].PC == prev.PC+isa.Addr(prev.Size) {
					t.Errorf("%s: run %d starts mid-run: no branch and no discontinuity before it", name, k)
				}
			}
			i += int(r.Insts)
		}
		if i != len(batch) {
			t.Errorf("%s: runs cover %d of %d instructions", name, i, len(batch))
		}
	}
}

// TestScanReusesItsBuffer: after the first batch a scan allocates nothing.
func TestScanReusesItsBuffer(t *testing.T) {
	_, batches := grabStream(t, "xalan-lite", 20_000)
	batch := batches[0]
	runs := trace.Scan(batch, nil)
	if allocs := testing.AllocsPerRun(10, func() { runs = trace.Scan(batch, runs) }); allocs != 0 {
		t.Errorf("Scan into a warm buffer allocates %v times per batch, want 0", allocs)
	}
	feed := trace.NewFeed(laneCounter{new(int)})
	feed.ObserveBatch(batch)
	if allocs := testing.AllocsPerRun(10, func() { feed.ObserveBatch(batch) }); allocs != 0 {
		t.Errorf("a warm Feed allocates %v times per batch, want 0", allocs)
	}
}

// joinRuns undoes the batch cuts: a run that no branch ended and whose
// successor starts where it stops was cut by a batch edge, not by the
// stream.
func joinRuns(lanes [][]isa.Run) []isa.Run {
	var out []isa.Run
	for _, runs := range lanes {
		for _, r := range runs {
			if n := len(out); n > 0 && out[n-1].Kind == isa.KindOther && out[n-1].Start+isa.Addr(out[n-1].Bytes) == r.Start {
				r.Start, r.Bytes, r.Insts = out[n-1].Start, r.Bytes+out[n-1].Bytes, r.Insts+out[n-1].Insts
				out = out[:n-1]
			}
			out = append(out, r)
		}
	}
	return out
}

// TestScanCutInvariance: however a stream is cut into batches, its lanes
// concatenate to the same runs — the same (PC, kind, taken, target) events
// with the same bytes and instructions between them.
func TestScanCutInvariance(t *testing.T) {
	for _, name := range workload.Names() {
		stream, batches := grabStream(t, name, 60_000)
		var whole [][]isa.Run
		for _, b := range batches {
			whole = append(whole, trace.Scan(b, nil))
		}
		want := joinRuns(whole)
		for _, size := range []int{1, 2, 7, 100, 4095, len(stream)} {
			var lanes [][]isa.Run
			for at := 0; at < len(stream); at += size {
				lanes = append(lanes, trace.Scan(stream[at:min(at+size, len(stream))], nil))
			}
			if got := joinRuns(lanes); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cut at %d: %d runs, want the engine cut's %d", name, size, len(got), len(want))
			}
		}
	}
}

// laneCounter counts the lanes it is handed and marks each one.
type laneCounter struct{ lanes *int }

func (c laneCounter) ConsumeLane(l *isa.Lane) {
	*c.lanes++
	l.Runs[0].Insts++ // visible to the consumers after it unless the batch is scanned again
}

// TestFeedScansOncePerBatch: nine consumers behind one feed see each batch's
// one lane — the marks of those before them included — with the batch's
// phase and instruction count, and Observe is a one-element batch.
func TestFeedScansOncePerBatch(t *testing.T) {
	_, batches := grabStream(t, "comd-lite", 30_000)
	var counts [9]int
	consumers := make([]trace.LaneConsumer, len(counts))
	for i := range consumers {
		consumers[i] = laneCounter{&counts[i]}
	}
	var lanes int
	var last laneCheck
	feed := trace.NewFeed(append(consumers, &last)...)
	for _, b := range batches {
		feed.ObserveBatch(b)
		lanes++
		first := trace.Scan(b, nil)[0]
		if last.first.Insts != first.Insts+9 {
			t.Fatalf("batch %d: the tenth consumer saw %d marks on the lane, want the nine before it", lanes, last.first.Insts-first.Insts)
		}
		if last.insts != len(b) || last.phase != phaseIndex(b[0].Serial) {
			t.Fatalf("batch %d: lane says %d instructions in phase %d, batch has %d in %d", lanes, last.insts, last.phase, len(b), phaseIndex(b[0].Serial))
		}
	}
	feed.ObserveBatch(nil) // an empty batch is no lane
	feed.Observe(batches[0][0])
	lanes++
	if last.insts != 1 || len(last.runs) != 1 {
		t.Errorf("Observe delivered a lane of %d instructions in %d runs, want a one-element batch", last.insts, len(last.runs))
	}
	for i, n := range counts {
		if n != lanes {
			t.Errorf("consumer %d saw %d lanes for %d batches", i, n, lanes)
		}
	}
}

type laneCheck struct {
	first        isa.Run
	runs         []isa.Run
	insts, phase int
}

func (c *laneCheck) ConsumeLane(l *isa.Lane) {
	c.first, c.runs, c.insts, c.phase = l.Runs[0], l.Runs, l.Insts, l.Phase
}

func phaseIndex(serial bool) int {
	if serial {
		return 0
	}
	return 1
}
