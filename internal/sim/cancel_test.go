package sim

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"rebalance/internal/isa"
	"rebalance/internal/program"
)

// awaitGoroutines polls until the goroutine count drops back to the
// baseline or the deadline passes, returning the final count.
func awaitGoroutines(baseline int, deadline time.Duration) int {
	stop := time.Now().Add(deadline)
	for runtime.NumGoroutine() > baseline && time.Now().Before(stop) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRunCancellation is the satellite contract: cancelling the context
// mid-Run must return promptly — aborting shards already executing, not
// just pending ones — leak no goroutines, and leave the Session reusable.
func TestRunCancellation(t *testing.T) {
	sess := NewSession(2)
	// Warm the compile cache so the measured interval is execution only.
	if _, err := sess.Compiled("comd-lite"); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// One enormous shard per worker: without in-shard cancellation this
	// spec runs for many seconds, so the prompt-return assertion below
	// fails loudly rather than hanging.
	spec := &Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{1, 2},
		Insts:     2_000_000_000,
		Observers: []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"grouped":true}`)}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := sess.Run(ctx, spec)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled run returned after %v; in-flight shards were not aborted", elapsed)
	}
	if n := awaitGoroutines(before, 5*time.Second); n > before {
		t.Errorf("goroutines leaked after cancelled run: %d before, %d after", before, n)
	}

	// The session must be reusable: same spec, sane budget, fresh context.
	small := *spec
	small.Insts = 20_000
	rep, err := sess.Run(context.Background(), &small)
	if err != nil {
		t.Fatalf("session not reusable after cancellation: %v", err)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(rep.Shards))
	}
}

// TestRunShardCancellation covers the single-shard worker path the simd
// /v1/shards handler drives: an already-cancelled context aborts before
// executing, and a mid-run cancellation aborts promptly.
func TestRunShardCancellation(t *testing.T) {
	sess := NewSession(1)
	spec := ShardSpec{
		Workload: "comd-lite",
		Seed:     1,
		Insts:    2_000_000_000,
		Observer: ObserverSpec{Kind: "bbl"},
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := sess.RunShard(pre, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunShard: want context.Canceled, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := sess.RunShard(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled shard returned after %v", elapsed)
	}
}

// cancelAfterCfg is a test-only configuration whose observer cancels the
// run's context once it has seen a set number of instructions — a
// cancellation that is mid-stream by construction.
type cancelAfterCfg struct {
	after  int64
	cancel context.CancelFunc
}

func (c cancelAfterCfg) Key() string        { return "cancel-test-after" }
func (c cancelAfterCfg) NewResult() Result  { return nil }
func (c cancelAfterCfg) Spec() ObserverSpec { return ObserverSpec{Kind: "cancel-test-after"} }
func (c cancelAfterCfg) DecodeTarget() (any, func() (Result, error)) {
	return new(any), func() (Result, error) { return nil, errors.New("cancel-test: no wire form") }
}
func (c cancelAfterCfg) NewObserver(*program.Program) ShardObserver {
	return &cancelAfterObs{cancelAfterCfg: c, left: c.after}
}

type cancelAfterObs struct {
	cancelAfterCfg
	left int64
}

func (o *cancelAfterObs) Observe(isa.Inst)        { o.saw(1) }
func (o *cancelAfterObs) ConsumeLane(l *isa.Lane) { o.saw(int64(l.Insts)) }

func (o *cancelAfterObs) saw(n int64) {
	if o.left -= n; o.left <= 0 {
		o.cancel()
	}
}

func (o *cancelAfterObs) Finish() (Result, error) {
	return nil, errors.New("cancel-test: a cancelled pass was finished")
}

// TestFusedGroupCancellation: a group cancelled mid-stream — two plain
// bpred members fused into one Sim, a grouped bpred member, and the member
// that pulls the plug — reports the context error for every member. The
// budget is one no machine finishes, so only the cancellation can end the
// pass.
func TestFusedGroupCancellation(t *testing.T) {
	cfgs, err := expandObservers([]ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)},
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tournament-small"],"grouped":true}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(1)
	c, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	// One leg, named for the one engine a session runs.
	t.Run(EngineCompiled, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		members := append(cfgs[:len(cfgs):len(cfgs)], cancelAfterCfg{after: 100_000, cancel: cancel})
		cells := make([]gridCell, len(members))
		group := make([]int, len(members))
		for i, cfg := range members {
			cells[i] = cellOf("comd-lite", cfg, 1, 2_000_000_000_000)
			group[i] = i
		}
		out := make([]Outcome, len(cells))
		sess.runGroup(ctx, c, cells, group, out)
		for i := range cells {
			if !errors.Is(out[i].Err, context.Canceled) {
				t.Errorf("member %s: err = %v, want context.Canceled", members[i].Key(), out[i].Err)
			}
			if out[i].Shard.Result != nil {
				t.Errorf("member %s of a cancelled group carries a result", members[i].Key())
			}
		}
	})
}
