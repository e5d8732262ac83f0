package trace

// In-package tests for what only the package can see: SetContext's
// never-fires fast path — whether the executor arms per-region polling is an
// internal decision (e.ctx) — and, on the lane path, whether the executor
// ever expanded a lane or a feed ever scanned a batch.

import (
	"context"
	"errors"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/workload"
)

type ctxKey struct{}

func TestSetContextFastPath(t *testing.T) {
	e := &Executor{}
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadlined, cancel2 := context.WithTimeout(context.Background(), 1e18)
	defer cancel2()

	cases := []struct {
		name     string
		ctx      context.Context
		wantPoll bool
	}{
		{"nil", nil, false},
		{"background", context.Background(), false},
		{"todo", context.TODO(), false},
		// The bug this pins down: a value-only derivation of Background
		// can never fire either, but the old identity comparison armed
		// polling for it.
		{"value-wrapped background", context.WithValue(context.Background(), ctxKey{}, 1), false},
		{"cancellable", cancellable, true},
		{"deadlined", deadlined, true},
		{"value-wrapped cancellable", context.WithValue(cancellable, ctxKey{}, 1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e.SetContext(tc.ctx)
			if got := e.ctx != nil; got != tc.wantPoll {
				t.Errorf("SetContext(%s): polling armed = %v, want %v", tc.name, got, tc.wantPoll)
			}
		})
	}
}

// TestSetContextValueOnlyRunCompletes drives a real run with a value-only
// context: it must complete exactly like an uncancellable run (and, with
// the fast path, without paying any per-region Err() calls).
func TestSetContextValueOnlyRunCompletes(t *testing.T) {
	c := compileTestWorkload(t)
	e := NewCompiledExecutor(c, 1)
	e.SetContext(context.WithValue(context.Background(), ctxKey{}, "v"))
	if err := e.Run(10_000); err != nil {
		t.Fatalf("run with value-only context failed: %v", err)
	}
	if e.Emitted() < 10_000 {
		t.Errorf("emitted %d < budget", e.Emitted())
	}
}

// cancelAfter cancels a context once it has observed n instructions.
type cancelAfter struct {
	left   int
	cancel context.CancelFunc
}

func (o *cancelAfter) Observe(isa.Inst) {
	if o.left--; o.left == 0 {
		o.cancel()
	}
}

// TestCancelledRunStops: both engines poll the armed context at region
// granularity, so a run cancelled mid-stream returns the context's error
// long before a budget no machine finishes.
func TestCancelledRunStops(t *testing.T) {
	c := compileTestWorkload(t)
	for name, run := range map[string]func(*Executor, int64) error{
		"compiled":  (*Executor).Run,
		"reference": (*Executor).RunReference,
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := NewCompiledExecutor(c, 1)
			e.SetContext(ctx)
			e.Attach(&cancelAfter{left: 50_000, cancel: cancel})
			if err := run(e, 2_000_000_000_000); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if e.Emitted() < 50_000 || e.Emitted() > 10_000_000 {
				t.Errorf("cancelled run emitted %d instructions, want a prompt stop after 50000", e.Emitted())
			}
		})
	}
}

// compileTestWorkload compiles a small real workload for in-package tests.
func compileTestWorkload(t *testing.T) *Compiled {
	t.Helper()
	prog, err := workload.Build("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLaneConsumersAreHandedTheLaneItself is the white-box half of "a
// production pass builds no instruction": with only lane consumers attached
// — a feed, as the session attaches — the executor never allocates its
// expansion buffer, and the feed, handed lanes, never scans: its own lane
// stays untouched. One instruction observer beside them brings both back.
func TestLaneConsumersAreHandedTheLaneItself(t *testing.T) {
	var insts int
	count := laneFunc(func(l *isa.Lane) { insts += l.Insts })
	feed := NewFeed(count)
	e := NewCompiledExecutor(compileTestWorkload(t), 1)
	e.Attach(feed)
	if err := e.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if int64(insts) != e.Emitted() {
		t.Fatalf("the feed's consumer saw %d instructions, the executor emitted %d", insts, e.Emitted())
	}
	if e.batch != nil {
		t.Error("an executor with only lane consumers attached allocated its expansion buffer")
	}
	if feed.lane.Runs != nil || feed.lane.Sizes != nil {
		t.Error("a feed handed lanes scanned a batch of its own")
	}

	e = NewCompiledExecutor(compileTestWorkload(t), 1)
	e.Attach(feed, ObserverFunc(func(isa.Inst) {}))
	if err := e.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if e.batch == nil {
		t.Error("an instruction observer was attached and no lane was expanded for it")
	}
	if feed.lane.Runs != nil {
		t.Error("the feed scanned although the executor handed it lanes")
	}
}

type laneFunc func(l *isa.Lane)

func (f laneFunc) ConsumeLane(l *isa.Lane) { f(l) }
