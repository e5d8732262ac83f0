package dispatch_test

// Partial grids — the runner reports, a sim.Session decides — and attempt
// timeouts through the session. The retry, hedging and revival policy
// itself is model_test.go's.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

// seedFailBackend permanently fails shards of one seed and answers the
// rest — the shape of a grid cell no backend can complete.
type seedFailBackend struct {
	name     string
	failSeed uint64
	calls    atomic.Int64
}

func (b *seedFailBackend) Name() string { return b.name }

func (b *seedFailBackend) Probe(context.Context) error { return nil }

func (b *seedFailBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, b.runShard)
}

func (b *seedFailBackend) runShard(_ context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	b.calls.Add(1)
	if spec.Seed == b.failSeed {
		return sim.Shard{}, fmt.Errorf("%s: scripted permanent failure for seed %d", b.name, spec.Seed)
	}
	return sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}, nil
}

func TestAllowPartialReturnsPartialError(t *testing.T) {
	a := &seedFailBackend{name: "a", failSeed: 2}
	b := &seedFailBackend{name: "b", failSeed: 2}
	// The failing member's calls alternate a, b, a: neither reaches the
	// dead-marking threshold.
	d, err := dispatch.New([]dispatch.Backend{a, b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.ShardSpec{testSpec(1), testSpec(2), testSpec(3), testSpec(4)}
	out, err := d.RunShards(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunShards = %v; a failed shard is an outcome, not the run's error", err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d outcomes, want 4 (index-aligned with the grid)", len(out))
	}
	for i, o := range out {
		if i == 1 {
			if o.Attempts != dispatch.Attempts || o.Err == nil || !strings.Contains(o.Err.Error(), "scripted permanent failure") {
				t.Errorf("outcome 1 = {attempts %d, err %v}, want %d attempts and the terminal backend error", o.Attempts, o.Err, dispatch.Attempts)
			}
			if o.Shard.Workload != "" {
				t.Errorf("failed position 1 holds a shard: %+v", o.Shard)
			}
			continue
		}
		if o.Err != nil || o.Shard.Seed != specs[i].Seed {
			t.Errorf("outcome %d = {seed %d, err %v}, want seed %d", i, o.Shard.Seed, o.Err, specs[i].Seed)
		}
	}
}

// TestWithoutAllowPartialFailureStillAborts is aimed at the layer that
// owns the rule: the dispatcher only reports, and a strict Session.Run
// over a failing dispatcher is all-or-nothing — a plain error naming the
// shard and no report. Both units reach the dispatcher at once; the
// failing member's calls alternate a, b, a, so no backend dies and the
// healthy unit succeeds whichever runs first.
func TestWithoutAllowPartialFailureStillAborts(t *testing.T) {
	a := &seedFailBackend{name: "a", failSeed: 2}
	b := &seedFailBackend{name: "b", failSeed: 2}
	d, err := dispatch.New([]dispatch.Backend{a, b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(1)
	sess.SetRunner(d)
	rep, err := sess.Run(context.Background(), &sim.Spec{
		Workloads: []string{"comd-lite"},
		SeedCount: 2,
		Insts:     5_000,
		Observers: []sim.ObserverSpec{{Kind: "bbl"}},
	})
	if err == nil || rep != nil {
		t.Fatalf("Run = (%v, %v), want the all-or-nothing failure", rep, err)
	}
	if !strings.Contains(err.Error(), "scripted permanent failure for seed 2") {
		t.Errorf("err = %v, want the failing shard's terminal error", err)
	}
}

// cellFailBackend runs shards on a real session, except the one grid
// cell — named by configuration key — it is scripted to fail.
type cellFailBackend struct {
	dispatch.LocalBackend
	failKey string
}

func (b *cellFailBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, func(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
		if cfg, err := spec.Config(); err == nil && cfg.Key() == b.failKey {
			return sim.Shard{}, errors.New("scripted permanent failure")
		}
		return sim.RunOne(ctx, &b.LocalBackend, spec)
	})
}

// TestDispatchedFailureNamesTheCell: on a one-kind grid (the Figure-5
// shape: every cell is a bpred) the observer kind names nothing, so a
// dispatched failure names its cell by configuration key, as the local
// pool and FailedShard.Observer do — in the degraded report's record and
// in the strict run's error alike.
func TestDispatchedFailureNamesTheCell(t *testing.T) {
	const failKey = "bpred/tage-small"
	b := &cellFailBackend{LocalBackend: dispatch.LocalBackend{Sess: sim.NewSession(1)}, failKey: failKey}
	spec := sim.Spec{
		Workloads: []string{"comd-lite"},
		Insts:     5_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small","tournament-small"]}`)}},
	}
	// Each run gets a dispatcher of its own: the failing cell's calls are
	// blamed, and its attempts kill the only backend.
	run := func() (*sim.Report, error) {
		d, err := dispatch.New([]dispatch.Backend{b}, onVirtualTime())
		if err != nil {
			t.Fatal(err)
		}
		sess := sim.NewSession(1)
		sess.SetRunner(d)
		return sess.Run(context.Background(), &spec)
	}

	_, err := run()
	if err == nil || !strings.Contains(err.Error(), failKey) {
		t.Errorf("strict run err = %v, want it to name cell %s", err, failKey)
	}

	spec.AllowPartial = true
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 2 || len(rep.FailedShards) != 1 {
		t.Fatalf("%d shards, %d failed_shards; want 2 and 1", len(rep.Shards), len(rep.FailedShards))
	}
	if f := rep.FailedShards[0]; f.Observer != failKey || !strings.Contains(f.Error, failKey) {
		t.Errorf("failed shard %+v; want observer and error text to name cell %s", f, failKey)
	}
}

// hangSeedBackend runs shards on a real session, except that one seed
// hangs — a hung, not dead, worker — while its clock runs to the call's
// attempt deadline.
type hangSeedBackend struct {
	dispatch.LocalBackend
	clk      *clock.Virtual
	hangSeed uint64
}

func (b *hangSeedBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, func(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
		if spec.Seed == b.hangSeed {
			b.clk.Advance(attemptDeadline(len(specs)))
			<-ctx.Done()
			return sim.Shard{}, ctx.Err()
		}
		return sim.RunOne(ctx, &b.LocalBackend, spec)
	})
}

// TestAttemptTimeoutFailsTheShard: a shard that exhausts its attempts on
// hung workers failed — the run was not cancelled, although the backend's
// error is context.DeadlineExceeded. An AllowPartial run degrades around
// it; a strict run fails with it, named, and the caller's hook hears of it.
// Two workers hang alike, so the hung shard's calls alternate between them
// and neither is blamed to death.
func TestAttemptTimeoutFailsTheShard(t *testing.T) {
	opts := onVirtualTime()
	v := opts.Clock.(*clock.Virtual)
	var backends []dispatch.Backend
	for i := 0; i < 2; i++ {
		backends = append(backends, &hangSeedBackend{LocalBackend: dispatch.LocalBackend{Sess: sim.NewSession(1)}, clk: v, hangSeed: 2})
	}
	d, err := dispatch.New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(1)
	sess.SetRunner(d)
	spec := sim.Spec{
		Workloads:    []string{"comd-lite"},
		SeedCount:    3,
		Insts:        5_000,
		Observers:    []sim.ObserverSpec{{Kind: "bbl"}},
		AllowPartial: true,
	}
	const cell = "sim: shard {comd-lite bbl seed 2}"

	rep, err := sess.Run(context.Background(), &spec)
	if err != nil {
		t.Fatalf("Run = %v; an attempt timeout must degrade an allow_partial run, not abort it", err)
	}
	if len(rep.Shards) != 2 || len(rep.FailedShards) != 1 {
		t.Fatalf("%d shards, failed_shards %+v; want 2 and 1", len(rep.Shards), rep.FailedShards)
	}
	f := rep.FailedShards[0]
	if f.Seed != 2 || f.Observer != "bbl" || f.Attempts != dispatch.Attempts || !strings.Contains(f.Error, "timed out") || !strings.Contains(f.Error, cell) {
		t.Errorf("failed shard = %+v, want {seed 2, bbl, %d attempts} timed out and named %q", f, dispatch.Attempts, cell)
	}

	spec.AllowPartial = false
	var mu sync.Mutex
	var failures []error
	ctx := sim.WithShardDone(context.Background(), func(_ sim.Shard, err error) {
		if err != nil {
			mu.Lock()
			failures = append(failures, err)
			mu.Unlock()
		}
	})
	_, err = sess.Run(ctx, &spec)
	if err == nil || !strings.Contains(err.Error(), cell) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strict Run = %v, want a failure naming %q that is not a context error", err, cell)
	}
	if len(failures) != 1 || failures[0] != err {
		t.Errorf("hook saw failures %v, want exactly the run's error", failures)
	}
}

func TestAllowPartialCancellationStillAborts(t *testing.T) {
	r := newRig()
	// The virtual attempt deadline never moves: only cancellation can end
	// this.
	d, err := dispatch.New(r.backends(1), dispatch.Options{MaxInFlight: 1, Clock: r})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		c := <-r.calls
		c.answer <- answer{letters: "c"}
		cancel()
	}()
	_, err = runShards(ctx, d, []sim.ShardSpec{testSpec(1), testSpec(2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled; a context error wins over any partial outcome", err)
	}
}
