package trace_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// checkLane holds a lane to the invariants of a stream source: between one
// and max instructions, a size for each, and runs that — once the cuts a
// source may make between contiguous branchless runs are undone — are exactly
// the maximal runs of the lane's own expansion, field for field (so a run's
// sizes sum to its Bytes, its PC is its last instruction's, and the runs'
// instructions sum to the lane's).
func checkLane(l *isa.Lane, max int) error {
	if l.Insts < 1 || l.Insts > max || len(l.Sizes) != l.Insts {
		return fmt.Errorf("%d instructions with %d sizes, want 1..%d of each", l.Insts, len(l.Sizes), max)
	}
	insts := 0
	for _, r := range l.Runs {
		insts += int(r.Insts)
	}
	if insts != l.Insts {
		return fmt.Errorf("runs hold %d instructions, the lane %d", insts, l.Insts)
	}
	if got, want := joinRuns([][]isa.Run{l.Runs}), trace.Scan(trace.Expand(l, nil), nil); !slices.Equal(got, want) {
		return fmt.Errorf("runs %+v do not describe the lane's instructions, whose maximal runs are %+v", l.Runs, want)
	}
	return nil
}

// sourceCheck is attached to a source twice over: as a lane consumer it
// checks every lane and keeps the stream it expands to, as a batch observer
// (through its batches method value) it checks every expanded batch.
type sourceCheck struct {
	t      *testing.T
	max    int
	lanes  int
	insts  int64
	stream []isa.Inst
}

func (c *sourceCheck) Observe(isa.Inst) { c.t.Fatal("a lane consumer was handed an instruction") }

func (c *sourceCheck) ConsumeLane(l *isa.Lane) {
	c.lanes++
	if err := checkLane(l, c.max); err != nil {
		c.t.Fatalf("lane %d: %v", c.lanes, err)
	}
	c.insts += int64(l.Insts)
	c.stream = append(c.stream, trace.Expand(l, nil)...)
}

func (c *sourceCheck) batches(b []isa.Inst) {
	if len(b) < 1 || len(b) > c.max {
		c.t.Fatalf("an expanded batch holds %d instructions, want 1..%d", len(b), c.max)
	}
	for i := range b {
		if b[i].Serial != b[0].Serial {
			c.t.Fatal("an expanded batch mixes serial and parallel instructions")
		}
	}
}

// batchContractProgram is built to sit on every edge of the BatchSize
// contract: a 5,000-instruction straight block (longer than a lane), a
// parallel region whose 4,096-instruction block fills a lane exactly so that
// its closing branch is alone in the next one — the region ends one
// instruction after a flush — and two 3,000-instruction blocks back to back,
// the second of which does not fit behind the first.
func batchContractProgram(t *testing.T) *program.Program {
	block := func(n int) *program.Straight {
		sizes := make([]uint8, n)
		for i := range sizes {
			sizes[i] = uint8(1 + i%15)
		}
		return &program.Straight{Block: program.NewBlock(sizes)}
	}
	syscall := func() *program.Syscall {
		return &program.Syscall{Site: &program.Branch{Size: 2, Kind: isa.KindSyscall}}
	}
	p := &program.Program{
		Name: "batch-contract",
		Regions: []*program.Region{
			{Name: "long-block", Serial: true, Weight: 1, Body: &program.Seq{Nodes: []program.Node{block(5000), syscall()}}},
			{Name: "one-past-a-flush", Weight: 1, Body: &program.Seq{Nodes: []program.Node{block(trace.BatchSize), syscall()}}},
			{Name: "does-not-fit", Serial: true, Weight: 2, Body: &program.Seq{Nodes: []program.Node{block(3000), block(3000), syscall()}}},
		},
	}
	if err := program.Layout(p, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSourcesHoldTheBatchContract pins what block-granular emission must not
// break: from the executor and from replay, no lane and no expanded batch
// exceeds BatchSize, none is empty, none mixes phases, every lane holds the
// lane invariants, the lanes' instructions sum to Emitted(), and the stream
// is the reference engine's — on the hand-built program above and on the
// built-in workloads.
func TestSourcesHoldTheBatchContract(t *testing.T) {
	progs := map[string]*program.Program{"batch-contract": batchContractProgram(t)}
	for _, name := range workload.Names() {
		progs[name] = workload.MustBuild(name)
	}
	for name, prog := range progs {
		const seed, insts = 13, 50_000
		var want []isa.Inst
		ref := trace.NewExecutor(prog, seed)
		ref.Attach(trace.ObserverFunc(func(in isa.Inst) { want = append(want, in) }))
		if err := ref.RunReference(insts); err != nil {
			t.Fatal(err)
		}

		live := &sourceCheck{t: t, max: trace.BatchSize}
		rec := replay.NewRecorder()
		e := trace.NewExecutor(prog, seed)
		e.Attach(live, batchFunc(live.batches), rec)
		if err := e.Run(insts); err != nil {
			t.Fatal(err)
		}
		if live.insts != e.Emitted() || e.Emitted() != ref.Emitted() {
			t.Errorf("%s: lanes hold %d instructions, the executor emitted %d, the reference engine %d", name, live.insts, e.Emitted(), ref.Emitted())
		}
		if !slices.Equal(live.stream, want) {
			t.Errorf("%s: the executor's lanes do not expand to the reference engine's stream", name)
		}

		tr := rec.Trace()
		for _, size := range []int{7, trace.BatchSize} {
			replayed := &sourceCheck{t: t, max: size}
			if err := replay.Deliver(context.Background(), tr, size, replayed, batchFunc(replayed.batches)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(replayed.stream, want) {
				t.Errorf("%s: lanes of %d decoded from the recording do not expand to the reference engine's stream", name, size)
			}
		}
	}
}

// laneCopy keeps a copy of the last lane it was handed.
type laneCopy struct{ isa.Lane }

func (c *laneCopy) ConsumeLane(l *isa.Lane) {
	c.Lane = isa.Lane{Runs: slices.Clone(l.Runs), Sizes: slices.Clone(l.Sizes), Insts: l.Insts, Phase: l.Phase}
}

// TestExpandInvertsScan: Expand(Scan(b)) == b for every batch of both
// built-in workloads and the branchiest synth scenario, cut at 1, 7 and 4096
// instructions (and at every phase change), and Scan(Expand(l)) is l with its
// adjacent branchless runs merged for every lane the executor renders —
// checkLane's statement.
func TestExpandInvertsScan(t *testing.T) {
	progs := map[string]*program.Program{"synth-len1": synth.MustBuild(synth.Params{Name: "expand-len1", BlockLen: 1})}
	for _, name := range workload.Names() {
		progs[name] = workload.MustBuild(name)
	}
	for name, prog := range progs {
		var stream []isa.Inst
		rendered := &sourceCheck{t: t, max: trace.BatchSize}
		e := trace.NewExecutor(prog, 9)
		e.Attach(rendered, trace.ObserverFunc(func(in isa.Inst) { stream = append(stream, in) }))
		if err := e.Run(40_000); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rendered.stream, stream) {
			t.Fatalf("%s: the lanes and their shared expansion are different streams", name)
		}
		for _, size := range []int{1, 7, trace.BatchSize} {
			var got laneCopy
			feed := trace.NewFeed(&got)
			for rest := stream; len(rest) > 0; {
				n := 1
				for n < len(rest) && n < size && rest[n].Serial == rest[0].Serial {
					n++
				}
				feed.ObserveBatch(rest[:n])
				if err := checkLane(&got.Lane, size); err != nil {
					t.Fatalf("%s: scanned lane: %v", name, err)
				}
				if !slices.Equal(trace.Expand(&got.Lane, nil), rest[:n]) {
					t.Fatalf("%s: cut at %d: Expand(Scan(batch)) is not the batch", name, size)
				}
				rest = rest[n:]
			}
		}
	}
}
