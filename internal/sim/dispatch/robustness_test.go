package dispatch_test

// Unit tests for the robustness machinery: full-jitter backoff, partial
// grids (the runner reports, a sim.Session decides), hedged straggler
// attempts, and probe-based revival of dead backends.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

// TestBackoffConsultsInjectedRand proves retry delays flow through the
// jitter source: with a scripted Rand the retries of a transiently
// failing backend draw exactly once per backoff sleep, and a
// zero-returning source makes the sleeps (near) instant.
func TestBackoffConsultsInjectedRand(t *testing.T) {
	b := &fakeBackend{name: "flaky", failFirst: 2}
	var draws atomic.Int64
	opts := dispatch.Options{
		Backoff: time.Hour, // full jitter on [0, cap): only a 0 draw keeps this test fast
		Rand: func() float64 {
			draws.Add(1)
			return 0
		},
	}
	d, err := dispatch.New([]dispatch.Backend{b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	if got := draws.Load(); got != 2 {
		t.Errorf("jitter source drawn %d times, want 2 (once per retry)", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("run took %v despite zero-jitter draws against a 1h cap", elapsed)
	}
}

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
	opts := fastOpts()
	opts.Attempts = 3
	opts.FailThreshold = 100 // the scripted failures must not kill the backends
	d, err := dispatch.New([]dispatch.Backend{a, b}, opts)
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
			if o.Attempts != 3 || o.Err == nil || !strings.Contains(o.Err.Error(), "scripted permanent failure") {
				t.Errorf("outcome 1 = {attempts %d, err %v}, want 3 attempts and the terminal backend error", o.Attempts, o.Err)
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
// shard and no report.
func TestWithoutAllowPartialFailureStillAborts(t *testing.T) {
	a := &seedFailBackend{name: "a", failSeed: 2}
	opts := fastOpts()
	opts.Attempts = 2
	d, err := dispatch.New([]dispatch.Backend{a}, opts)
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
	opts := fastOpts()
	opts.FailThreshold = 100 // the scripted failures must not kill the backend
	d, err := dispatch.New([]dispatch.Backend{b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(1)
	sess.SetRunner(d)
	spec := sim.Spec{
		Workloads: []string{"comd-lite"},
		Insts:     5_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small","tournament-small"]}`)}},
	}

	_, err = sess.Run(context.Background(), &spec)
	if err == nil || !strings.Contains(err.Error(), failKey) {
		t.Errorf("strict run err = %v, want it to name cell %s", err, failKey)
	}

	spec.AllowPartial = true
	rep, err := sess.Run(context.Background(), &spec)
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
// hangs until its context ends — a hung, not dead, worker.
type hangSeedBackend struct {
	dispatch.LocalBackend
	hangSeed uint64
}

func (b *hangSeedBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, func(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
		if spec.Seed == b.hangSeed {
			<-ctx.Done()
			return sim.Shard{}, ctx.Err()
		}
		return sim.RunOne(ctx, &b.LocalBackend, spec)
	})
}

// TestAttemptTimeoutFailsTheShard: a shard that exhausts its attempts on
// a hung worker failed — the run was not cancelled, although the backend's
// error is context.DeadlineExceeded. An AllowPartial run degrades around
// it; a strict run fails with it, named, and the caller's hook hears of it.
func TestAttemptTimeoutFailsTheShard(t *testing.T) {
	b := &hangSeedBackend{LocalBackend: dispatch.LocalBackend{Sess: sim.NewSession(1)}, hangSeed: 2}
	opts := fastOpts()
	opts.Attempts = 2
	opts.AttemptTimeout = 20 * time.Millisecond
	opts.FailThreshold = 100 // the timeouts must not kill the only backend
	d, err := dispatch.New([]dispatch.Backend{b}, opts)
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
	if f.Seed != 2 || f.Observer != "bbl" || f.Attempts != 2 || !strings.Contains(f.Error, "timed out") || !strings.Contains(f.Error, cell) {
		t.Errorf("failed shard = %+v, want {seed 2, bbl, 2 attempts} timed out and named %q", f, cell)
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
	blocked := &fakeBackend{name: "blocked", block: true}
	opts := fastOpts()
	opts.AttemptTimeout = -1 // no per-attempt bound: only cancellation can end this
	d, err := dispatch.New([]dispatch.Backend{blocked}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = runShards(ctx, d, []sim.ShardSpec{testSpec(1), testSpec(2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled; a context error wins over any partial outcome", err)
	}
}

// slowBackend answers after a fixed delay (or when cancelled).
type slowBackend struct {
	name  string
	delay time.Duration
	calls atomic.Int64
}

func (b *slowBackend) Name() string { return b.name }

func (b *slowBackend) Probe(context.Context) error { return nil }

func (b *slowBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, b.runShard)
}

func (b *slowBackend) runShard(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	b.calls.Add(1)
	select {
	case <-ctx.Done():
		return sim.Shard{}, ctx.Err()
	case <-time.After(b.delay):
		return sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}, nil
	}
}

// TestHedgeWinsWithoutBlame pins the hedge contract: a straggling primary
// is raced by a duplicate on the second backend, the duplicate's result
// is served, and the cancelled straggler is not blamed (both backends
// stay healthy).
func TestHedgeWinsWithoutBlame(t *testing.T) {
	slow := &slowBackend{name: "slow", delay: 2 * time.Second}
	fast := &fakeBackend{name: "fast"}
	opts := fastOpts()
	opts.MaxInFlight = 4
	opts.HedgeDelay = 5 * time.Millisecond
	// Backends are picked least-inflight with slice order breaking ties,
	// so the lone shard's primary is deterministically "slow".
	d, err := dispatch.New([]dispatch.Backend{slow, fast}, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	shards, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Seed != 1 {
		t.Fatalf("shards = %+v", shards)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged shard took %v; the fast duplicate's result must win", elapsed)
	}
	stats := d.Stats()
	if stats.Hedges != 1 || stats.HedgeWins != 1 {
		t.Errorf("stats = %+v, want 1 hedge and 1 hedge win", stats)
	}
	if healthy := d.Healthy(); len(healthy) != 2 {
		t.Errorf("healthy = %v; a cancelled hedge loser must not be blamed", healthy)
	}
}

// TestHedgeNeedsASecondBackend: with one backend there is nowhere to
// duplicate to, so no hedge fires however slow the attempt is.
func TestHedgeNeedsASecondBackend(t *testing.T) {
	slow := &slowBackend{name: "slow", delay: 50 * time.Millisecond}
	opts := fastOpts()
	opts.HedgeDelay = time.Millisecond
	d, err := dispatch.New([]dispatch.Backend{slow}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	if stats := d.Stats(); stats.Hedges != 0 {
		t.Errorf("stats = %+v; a lone backend must never be hedged against itself", stats)
	}
	if got := slow.calls.Load(); got != 1 {
		t.Errorf("backend saw %d calls, want 1", got)
	}
}

// gaugedBackend tracks, across every backend sharing one gauge, how many
// backend calls are in flight and the peak.
type gaugedBackend struct {
	dispatch.Backend
	cur, peak *atomic.Int64
}

func (g gaugedBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	enterGauge(g.cur, g.peak)
	defer g.cur.Add(-1)
	return g.Backend.RunShards(ctx, specs)
}

// TestHedgeFiresWhenPoolSaturated: a hedge rides its primary's in-flight
// slot, so a saturated pool — one slot, held by the straggling primary —
// still cuts the tail. Every unit is hedged exactly once, the hedge wins,
// the cancelled straggler is not blamed, and the load bound holds: never
// more than 2 x MaxInFlight backend calls at once.
func TestHedgeFiresWhenPoolSaturated(t *testing.T) {
	var cur, peak atomic.Int64
	slow := &slowBackend{name: "slow", delay: 60 * time.Millisecond}
	fast := &fakeBackend{name: "fast"}
	opts := fastOpts()
	opts.MaxInFlight = 1 // the primary holds the only slot
	opts.HedgeDelay = time.Millisecond
	// Ties break by slice order, so every primary lands on "slow".
	d, err := dispatch.New([]dispatch.Backend{
		gaugedBackend{slow, &cur, &peak},
		gaugedBackend{fast, &cur, &peak},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Three one-shard units, one after another.
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := d.Stats(); stats.Hedges != 3 || stats.HedgeWins != 3 {
		t.Errorf("stats = %+v, want one winning hedge per shard despite the full slot pool", stats)
	}
	if got := fast.calls.Load(); got != 3 {
		t.Errorf("hedge backend saw %d calls, want 3", got)
	}
	if healthy := d.Healthy(); len(healthy) != 2 {
		t.Errorf("healthy = %v; the straggler lost races, it did not fail", healthy)
	}
	if p := peak.Load(); p > 2*int64(opts.MaxInFlight) {
		t.Errorf("saw %d backend calls in flight, want at most 2 x MaxInFlight = %d", p, 2*opts.MaxInFlight)
	}
}

// TestDerivedHedgeDelayNeedsSamples: with Hedge on but no fixed delay,
// nothing hedges until a latency sample exists — there is no notion of
// "straggling" before anything has been observed.
func TestDerivedHedgeDelayNeedsSamples(t *testing.T) {
	slow := &slowBackend{name: "slow", delay: 40 * time.Millisecond}
	fast := &fakeBackend{name: "fast"}
	opts := fastOpts()
	opts.MaxInFlight = 4
	opts.Hedge = true // no HedgeDelay: derived from (so far empty) observations
	d, err := dispatch.New([]dispatch.Backend{slow, fast}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	if stats := d.Stats(); stats.Hedges != 0 {
		t.Errorf("stats = %+v; the first-ever attempt has no latency window to judge stragglers by", stats)
	}
}

// probeBackend scripts a probe-capable backend: a shard fails its first
// failFirst calls, and the test controls when probes succeed. It records
// whether a shard was ever dispatched to it between death and a
// successful probe — the sacrifice the probe path exists to avoid.
type probeBackend struct {
	name      string
	failFirst int64

	calls      atomic.Int64
	probes     atomic.Int64
	probeOK    atomic.Bool
	inProbe    atomic.Int64
	probePeak  atomic.Int64
	probeDelay time.Duration
	sacrificed atomic.Bool
}

func (b *probeBackend) Name() string { return b.name }

func (b *probeBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, b.runShard)
}

func (b *probeBackend) runShard(_ context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	n := b.calls.Add(1)
	if n <= b.failFirst {
		return sim.Shard{}, fmt.Errorf("%s: scripted failure %d", b.name, n)
	}
	if !b.probeOK.Load() {
		// A shard reached a dead probe-capable backend before any probe
		// succeeded: the single-shard sacrifice probe-only revival must
		// never pay.
		b.sacrificed.Store(true)
	}
	return sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}, nil
}

func (b *probeBackend) Probe(context.Context) error {
	enterGauge(&b.inProbe, &b.probePeak)
	if b.probeDelay > 0 {
		time.Sleep(b.probeDelay)
	}
	b.inProbe.Add(-1)
	b.probes.Add(1)
	if !b.probeOK.Load() {
		return errors.New("still down")
	}
	return nil
}

// TestProbeRevivalWithoutSacrifice: a dead probe-capable backend is
// revived by a cheap health probe — never by feeding it a real shard.
func TestProbeRevivalWithoutSacrifice(t *testing.T) {
	a := &probeBackend{name: "a", failFirst: 3}
	b := &fakeBackend{name: "b"}
	opts := fastOpts()
	opts.FailThreshold = 3
	opts.ReviveAfter = time.Millisecond
	opts.MaxInFlight = 1
	d, err := dispatch.New([]dispatch.Backend{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Drive shards until a's three scripted failures mark it dead; every
	// shard still completes via failover to b.
	for seed := uint64(1); a.calls.Load() < 3; seed++ {
		if _, err := runShards(ctx, d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if healthy := d.Healthy(); len(healthy) != 1 || healthy[0] != "b" {
		t.Fatalf("healthy = %v, want [b] after a's scripted failures", healthy)
	}

	// a stays dead (probes fail) while work keeps flowing: no shard may
	// reach it, however many cooldowns expire.
	for seed := uint64(100); seed < 120; seed++ {
		if _, err := runShards(ctx, d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := a.calls.Load(); got != 3 {
		t.Fatalf("dead backend saw %d calls, want 3; revival must not sacrifice shards", got)
	}

	// Flip the backend healthy: the next successful probe revives it, and
	// only then does it see shards again.
	a.probeOK.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for a.calls.Load() == 3 && time.Now().Before(deadline) {
		seed := uint64(1000 + a.probes.Load())
		if _, err := runShards(ctx, d, []sim.ShardSpec{testSpec(seed), testSpec(seed + 5000)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if a.calls.Load() == 3 {
		t.Fatal("backend never revived after probes were allowed to succeed")
	}
	if a.sacrificed.Load() {
		t.Error("a shard reached the dead backend before a successful probe")
	}
	if got := a.probes.Load(); got == 0 {
		t.Error("backend revived without any probe")
	}
	if stats := d.Stats(); stats.Probes == 0 {
		t.Errorf("stats = %+v, want probes > 0", stats)
	}
}

// TestSingleProberInvariant: however many shards observe an expired
// cooldown concurrently, at most one probe per backend is in flight.
func TestSingleProberInvariant(t *testing.T) {
	a := &probeBackend{name: "a", failFirst: 1 << 30, probeDelay: 10 * time.Millisecond}
	b := &fakeBackend{name: "b"}
	opts := fastOpts()
	opts.FailThreshold = 1
	opts.ReviveAfter = time.Nanosecond // every pick is tempted to probe
	opts.MaxInFlight = 8
	d, err := dispatch.New([]dispatch.Backend{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Kill a.
	if _, err := runShards(ctx, d, []sim.ShardSpec{testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	// Hammer the dispatcher from many goroutines while probes crawl.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				specs := []sim.ShardSpec{testSpec(uint64(g*1000 + i + 10))}
				if _, err := runShards(ctx, d, specs); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if peak := a.probePeak.Load(); peak > 1 {
		t.Errorf("saw %d concurrent probes; the single-prober invariant is broken", peak)
	}
}
