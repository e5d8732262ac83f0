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

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

// TestBackoffIsFullJitterUnderTheCap pins the retry schedule on virtual
// time: retry k of a member fires a delay drawn from [0, BackoffCap <<
// (k−1)) after the call that failed it — full jitter under a doubling cap.
// Sixteen runs of two retries each: a cap of twice the production one would
// keep all 32 draws under it with probability 2^-32.
func TestBackoffIsFullJitterUnderTheCap(t *testing.T) {
	for run := 0; run < 16; run++ {
		opts := onVirtualTime()
		b := &fakeBackend{name: "flaky", failFirst: dispatch.Attempts - 1, clk: opts.Clock}
		d, err := dispatch.New([]dispatch.Backend{b}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); err != nil {
			t.Fatal(err)
		}
		at := b.stamps()
		if len(at) != dispatch.Attempts {
			t.Fatalf("backend saw %d calls, want %d", len(at), dispatch.Attempts)
		}
		for k := 1; k < len(at); k++ {
			if delay, capDelay := at[k].Sub(at[k-1]), dispatch.BackoffCap<<(k-1); delay < 0 || delay >= capDelay {
				t.Errorf("run %d: retry %d fired %v after its failure, want within [0, %v)", run, k, delay, capDelay)
			}
		}
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
	blocked := &fakeBackend{name: "blocked", block: true}
	// The virtual attempt deadline never moves: only cancellation can end
	// this.
	d, err := dispatch.New([]dispatch.Backend{blocked}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	_, err = runShards(cancelOnBlock(blocked), d, []sim.ShardSpec{testSpec(1), testSpec(2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled; a context error wins over any partial outcome", err)
	}
}

// slowBackend answers its i-th call lat[i] after it began, on clk, and
// holds every later call until its context ends — a straggler.
type slowBackend struct {
	name string
	clk  clock.Clock
	lat  []time.Duration
	// began, when set, is handed the instant each call began, once the
	// call's own timer is armed.
	began chan time.Time

	calls atomic.Int64
}

func (b *slowBackend) Name() string { return b.name }

func (b *slowBackend) Probe(context.Context) error { return nil }

func (b *slowBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	n := b.calls.Add(1) - 1
	var answer <-chan time.Time
	if n < int64(len(b.lat)) {
		timer := b.clk.NewTimer(b.lat[n])
		defer timer.Stop()
		answer = timer.C
	}
	if b.began != nil {
		b.began <- b.clk.Now()
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-answer:
		return eachShard(ctx, specs, func(_ context.Context, spec sim.ShardSpec) (sim.Shard, error) {
			return sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}, nil
		})
	}
}

// hedgedOn returns hedging options with inFlight slots on virtual time (see
// onVirtualTime).
func hedgedOn(inFlight int) dispatch.Options {
	opts := withInFlight(onVirtualTime(), inFlight)
	opts.Hedge = true
	return opts
}

// TestHedgeWinsWithoutBlame pins the hedge contract: once a latency sample
// exists, a straggling primary is raced by a duplicate on the second
// backend, the duplicate's result is served, and the cancelled straggler is
// not blamed (both backends stay healthy).
func TestHedgeWinsWithoutBlame(t *testing.T) {
	opts := hedgedOn(4)
	slow := &slowBackend{name: "slow", clk: opts.Clock, lat: []time.Duration{10 * time.Millisecond}}
	fast := &fakeBackend{name: "fast"}
	// Backends are picked least-inflight with slice order breaking ties,
	// so every lone unit's primary is deterministically "slow".
	d, err := dispatch.New([]dispatch.Backend{slow, fast}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ { // a sample, then a straggler
		shards, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 1 || shards[0].Seed != seed {
			t.Fatalf("shards = %+v", shards)
		}
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
	opts := hedgedOn(2)
	slow := &slowBackend{name: "slow", clk: opts.Clock, lat: []time.Duration{10 * time.Millisecond, 50 * time.Millisecond}}
	d, err := dispatch.New([]dispatch.Backend{slow}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ { // the second outlives its 20 ms hedge delay
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := d.Stats(); stats.Hedges != 0 {
		t.Errorf("stats = %+v; a lone backend must never be hedged against itself", stats)
	}
	if got := slow.calls.Load(); got != 2 {
		t.Errorf("backend saw %d calls, want 2", got)
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
// still cuts the tail. Once a first unit has left a latency sample, every
// unit is hedged exactly once, the hedge wins, the cancelled straggler is
// not blamed, and the load bound holds: never more than 2 x MaxInFlight
// backend calls at once.
func TestHedgeFiresWhenPoolSaturated(t *testing.T) {
	var cur, peak atomic.Int64
	opts := hedgedOn(1) // the primary holds the only slot
	slow := &slowBackend{name: "slow", clk: opts.Clock, lat: []time.Duration{10 * time.Millisecond}}
	fast := &fakeBackend{name: "fast"}
	// Ties break by slice order, so every primary lands on "slow".
	d, err := dispatch.New([]dispatch.Backend{
		gaugedBackend{slow, &cur, &peak},
		gaugedBackend{fast, &cur, &peak},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A sample, then three stragglers, one after another.
	for seed := uint64(0); seed <= 3; seed++ {
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := d.Stats(); stats.Hedges != 3 || stats.HedgeWins != 3 {
		t.Errorf("stats = %+v, want one winning hedge per straggler despite the full slot pool", stats)
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

// TestDerivedHedgeDelayNeedsSamples: nothing hedges until a latency sample
// exists — there is no notion of "straggling" before anything has been
// observed — however long the first-ever attempt takes.
func TestDerivedHedgeDelayNeedsSamples(t *testing.T) {
	opts := hedgedOn(4)
	slow := &slowBackend{name: "slow", clk: opts.Clock, lat: []time.Duration{time.Second}}
	fast := &fakeBackend{name: "fast"}
	d, err := dispatch.New([]dispatch.Backend{slow, fast}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	if stats := d.Stats(); stats.Hedges != 0 || fast.calls.Load() != 0 {
		t.Errorf("stats = %+v; the first-ever attempt has no latency window to judge stragglers by", stats)
	}
}

// TestDerivedHedgeFiresAtTwiceP95 pins the derivation on virtual time: over
// 21 observed latencies — one of 30 ms, one of 50 ms, nineteen of 10 ms —
// the p95 is the 20th smallest, 30 ms (not the maximum), and a straggler is
// hedged exactly 60 ms after its unit was sent, not 1 ns earlier or later.
// Each sample's primary answers before the hedge delay then in force.
func TestDerivedHedgeFiresAtTwiceP95(t *testing.T) {
	v := clock.NewVirtual()
	lat := []time.Duration{30 * time.Millisecond, 50 * time.Millisecond}
	for len(lat) < 21 {
		lat = append(lat, 10*time.Millisecond)
	}
	slow := &slowBackend{name: "slow", clk: v, lat: lat, began: make(chan time.Time)}
	fast := &fakeBackend{name: "fast", clk: v}
	d, err := dispatch.New([]dispatch.Backend{slow, fast}, dispatch.Options{MaxInFlight: 4, Hedge: true, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	// send runs one unit; its primary's begin instant arrives on slow.began
	// once the call's timers — the hedge's is armed before the primary
	// starts — are all armed.
	send := func(seed uint64) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)})
			done <- err
		}()
		return done
	}
	for i, l := range lat {
		done := send(uint64(i + 1))
		<-slow.began
		v.Advance(l)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if stats := d.Stats(); stats.Hedges != 0 {
		t.Fatalf("stats = %+v; a sample answered before the hedge delay was hedged", stats)
	}
	// The straggler: with Auto set (no call is in flight to race it), the
	// clock moves to the hedge timer as it is armed — before the primary
	// begins, and by nothing else — so the hedge's call reads the instant it
	// fired.
	v.Auto = true
	sent := v.Now()
	done := send(100)
	<-slow.began
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if at := fast.stamps(); len(at) != 1 || at[0].Sub(sent) != 60*time.Millisecond {
		t.Errorf("hedge calls at %v, unit sent at %v; want one hedge exactly 60ms after it", at, sent)
	}
	if stats := d.Stats(); stats.Hedges != 1 || stats.HedgeWins != 1 {
		t.Errorf("stats = %+v, want the straggler hedged once, and the hedge to win", stats)
	}
}

// probeBackend scripts a probe-capable backend: a shard fails its first
// failFirst calls, and the test controls when probes succeed. It records
// whether a shard was ever dispatched to it between death and a
// successful probe — the sacrifice the probe path exists to avoid.
type probeBackend struct {
	name      string
	failFirst int64
	clk       clock.Clock
	// gate, when set, holds every probe until it is closed.
	gate chan struct{}

	calls      atomic.Int64
	lastFail   atomic.Int64 // UnixNano on clk of the last scripted failure
	probes     atomic.Int64
	probeOK    atomic.Bool
	inProbe    atomic.Int64
	probePeak  atomic.Int64
	sacrificed atomic.Bool
}

func (b *probeBackend) Name() string { return b.name }

func (b *probeBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, b.runShard)
}

func (b *probeBackend) runShard(_ context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	n := b.calls.Add(1)
	if n <= b.failFirst {
		b.lastFail.Store(b.clk.Now().UnixNano())
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

func (b *probeBackend) Probe(ctx context.Context) error {
	enterGauge(&b.inProbe, &b.probePeak)
	defer b.inProbe.Add(-1)
	b.probes.Add(1)
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
		}
	}
	if !b.probeOK.Load() {
		return errors.New("still down")
	}
	return nil
}

// killProbed sends one-shard units through d until a's scripted failures
// have marked it dead — every one completes by failover — and returns the
// instant it died.
func killProbed(t *testing.T, d *dispatch.Dispatcher, a *probeBackend) time.Time {
	t.Helper()
	for seed := uint64(1); a.calls.Load() < a.failFirst; seed++ {
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if healthy := d.Healthy(); len(healthy) != 1 || healthy[0] == a.name {
		t.Fatalf("healthy = %v, want %s dead after its scripted failures", healthy, a.name)
	}
	return time.Unix(0, a.lastFail.Load())
}

// TestProbeRevivalWithoutSacrifice: a dead probe-capable backend is
// revived by a cheap health probe — never by feeding it a real shard — and
// each probe restarts the cooldown: one that fails at ReviveAfter leaves the
// backend unprobed at 2 x ReviveAfter − 1 ns and probed again at
// 2 x ReviveAfter.
func TestProbeRevivalWithoutSacrifice(t *testing.T) {
	opts := withInFlight(onVirtualTime(), 1)
	v := opts.Clock.(*clock.Virtual)
	a := &probeBackend{name: "a", failFirst: dispatch.FailThreshold, clk: v}
	b := &fakeBackend{name: "b"}
	d, err := dispatch.New([]dispatch.Backend{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	died := killProbed(t, d, a)
	seed := uint64(100)
	// at moves the clock to died+offset and runs one unit: every pick looks
	// at the dead backend's cooldown. It reports the probes launched so far.
	at := func(offset time.Duration) int64 {
		t.Helper()
		v.Advance(died.Add(offset).Sub(v.Now()))
		seed++
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(seed)}); err != nil {
			t.Fatal(err)
		}
		return d.Stats().Probes
	}
	if got := at(dispatch.ReviveAfter); got != 1 {
		t.Fatalf("%d probes when the cooldown ran out, want 1", got)
	}
	if got := at(2*dispatch.ReviveAfter - time.Nanosecond); got != 1 {
		t.Fatalf("%d probes 1 ns before the restarted cooldown ran out, want still 1", got)
	}
	if got := at(2 * dispatch.ReviveAfter); got != 2 {
		t.Fatalf("%d probes when the restarted cooldown ran out, want 2", got)
	}
	if got := a.calls.Load(); got != dispatch.FailThreshold {
		t.Fatalf("dead backend saw %d calls, want %d; revival must not sacrifice shards", got, dispatch.FailThreshold)
	}

	// Flip the backend healthy: the next probe revives it, and only then
	// does it see shards again. The second probe runs on its own goroutine;
	// it must have read its verdict (still down) before the flip.
	eventually(t, "the second probe answers", func() bool { return a.probes.Load() == 2 && a.inProbe.Load() == 0 })
	a.probeOK.Store(true)
	if got := at(3 * dispatch.ReviveAfter); got != 3 {
		t.Fatalf("%d probes, want the third at the third cooldown's end", got)
	}
	eventually(t, "the probed backend revives", func() bool { return len(d.Healthy()) == 2 })
	if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1000)}); err != nil {
		t.Fatal(err)
	}
	if got := a.calls.Load(); got != dispatch.FailThreshold+1 {
		t.Fatalf("revived backend saw %d calls, want the next unit (%d)", got, dispatch.FailThreshold+1)
	}
	if a.sacrificed.Load() {
		t.Error("a shard reached the dead backend before a successful probe")
	}
}

// TestSingleProberInvariant: however many shards observe an expired
// cooldown concurrently, at most one probe per backend is in flight.
func TestSingleProberInvariant(t *testing.T) {
	opts := withInFlight(onVirtualTime(), 8)
	v := opts.Clock.(*clock.Virtual)
	a := &probeBackend{name: "a", failFirst: dispatch.FailThreshold, clk: v, gate: make(chan struct{})}
	b := &fakeBackend{name: "b"}
	d, err := dispatch.New([]dispatch.Backend{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer close(a.gate)
	died := killProbed(t, d, a)
	v.Advance(died.Add(dispatch.ReviveAfter).Sub(v.Now()))
	// Hammer the dispatcher from many goroutines while the probe is held.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				specs := []sim.ShardSpec{testSpec(uint64(g*1000 + i + 10))}
				if _, err := runShards(context.Background(), d, specs); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if peak := a.probePeak.Load(); peak > 1 {
		t.Errorf("saw %d concurrent probes; the single-prober invariant is broken", peak)
	}
	if stats := d.Stats(); stats.Probes != 1 {
		t.Errorf("stats = %+v; want one probe for one expired cooldown", stats)
	}
}
