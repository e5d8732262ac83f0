// Package dispatch runs units of a shard grid on pluggable execution
// backends — the missing half of the sim layer's "remote shards fold
// without re-deriving" promise. A Backend is a sim.ShardRunner with a name
// and a liveness probe: LocalBackend is a sim.Session, and HTTPBackend
// speaks the simd worker protocol (POST /v1/shards). The Dispatcher is one
// unit's retry policy: a sim.Session routed through it (SetRunner) plans
// its grid, resolves it against its result cache and hands each unit's
// misses — a trace coordinate's shards, so a worker streams the coordinate
// once for all of them — to Dispatcher.RunShards as one call, which sends
// them to a backend under a dispatcher-wide in-flight bound, re-sends the
// members that failed retryably with exponential backoff, fails over to
// the remaining backends when one dies, and hedges stragglers. It only
// reports: one sim.Outcome per spec — a shard it had to abandon is a value,
// with the attempts spent and the terminal error. Naming failures,
// progress and abort-versus-degrade are the Session's.
//
// Because every shard is deterministic for its {workload, seed,
// observer-config, insts, engine} and results land index-aligned with the
// grid, a Report assembled through the Dispatcher is bit-identical (up to
// timing fields) to an all-local run — regardless of which backend ran
// which shard, how many retries it took, or which backends died.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rebalance/internal/sim"
)

// Backend executes units — the shards the Dispatcher sends it in one call —
// under the sim.ShardRunner contract: one outcome per spec, index-aligned;
// a failure of the call itself (transport, a malformed answer) is every
// member's Err; the returned error is ctx's, whenever ctx ended first, and
// nothing else. The session above the Dispatcher owns the grid, so a
// Backend neither names failures by cell nor delivers to sim.ShardDone, and
// the Attempts it reports are ignored. Implementations must be safe for
// concurrent RunShards calls: up to the in-flight bound are issued at once.
type Backend interface {
	sim.ShardRunner
	// Name identifies the backend in errors (e.g. "local" or the worker's
	// base URL).
	Name() string
	// Probe is a cheap liveness check that costs no shard attempt. When a
	// dead backend's revival cooldown expires, the Dispatcher probes it
	// asynchronously (one probe at a time); only a successful probe
	// readmits it to scheduling, so revival never spends a real shard on
	// a possibly-still-dead worker. Probe must be safe for use from a
	// background goroutine and should answer within probeTimeout.
	Probe(ctx context.Context) error
}

// probeTimeout bounds one asynchronous revival probe, so a hung health
// endpoint cannot pin a backend in the probing state indefinitely.
const probeTimeout = 5 * time.Second

// LocalBackend runs units on this process: it is the sim.Session (its pool,
// its compiled-program cache) under a Backend's name.
type LocalBackend struct {
	Sess *sim.Session
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return "local" }

// RunShards implements Backend.
func (b *LocalBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return b.Sess.RunShards(ctx, specs)
}

// Probe implements Backend: this process is always up.
func (b *LocalBackend) Probe(context.Context) error { return nil }

// Options tune a Dispatcher. The zero value selects the defaults noted on
// each field.
type Options struct {
	// MaxInFlight caps the backend calls executing at once across all
	// backends and every run sharing this dispatcher (default 2 per
	// backend). It is only that cross-run cap: how a grid is cut and how
	// many of its units are in flight is the routed session's workers
	// alone, so a session with fewer workers than this leaves slots idle.
	MaxInFlight int
	// Attempts is the per-shard attempt budget, first try included
	// (default 3): the calls a member may ride in. Attempts after a
	// failure prefer a different backend — the failover path.
	Attempts int
	// Backoff is the cap on the delay before a shard's second attempt,
	// doubling per subsequent attempt (default 100ms). The actual sleep
	// is drawn uniformly from [0, cap) — full jitter — so concurrent
	// shards that failed together do not retry in lockstep and hammer a
	// recovering worker as a thundering herd. The sleep is context-aware.
	Backoff time.Duration
	// Rand, when non-nil, supplies the uniform [0,1) draws behind the
	// backoff jitter (and must be safe for concurrent use); nil selects
	// the global math/rand source. Tests inject a deterministic sequence
	// here so timing assertions stay reproducible.
	Rand func() float64
	// FailThreshold marks a backend dead after this many consecutive
	// failures (default 3). Dead backends are skipped while any live one
	// remains; a success resets the count. Only failures attributable to
	// the backend count — a cancelled context or an invalid shard spec
	// says nothing about the worker's health.
	FailThreshold int
	// ReviveAfter is how long a dead backend sits out before it is
	// probed again (default 15s). One probe runs at a time and costs no
	// shard, so a still-dead worker costs one health check per cooldown.
	// A failed probe restarts the clock; a success fully revives it. This
	// is what lets a restarted worker rejoin a long-lived coordinator.
	ReviveAfter time.Duration
	// AttemptTimeout bounds a single backend call, so a hung (not dead)
	// worker turns into a retryable failure instead of wedging the run.
	// 0 derives a generous bound from the shard budget (30s plus 1µs per
	// instruction — over an order of magnitude above real shard rates);
	// negative disables the bound entirely.
	AttemptTimeout time.Duration
	// Hedge duplicates straggling shard attempts onto a second healthy
	// backend: when a backend call outlives the hedge delay, the same
	// shards are issued to a different live backend, the first result
	// wins, and the loser is cancelled. Safe because shard results are
	// deterministic and content-addressed — the winner is bit-identical
	// whichever backend produced it — and hedges never double-count
	// blame (a cancelled loser is not a backend failure) or outcomes
	// (each member gets one, which the session writes back once). A hedge
	// rides its primary's in-flight slot rather than taking one of its
	// own, so a backlog cannot switch tail-cutting off; the price is
	// load: with every primary straggling, up to 2 x MaxInFlight backend
	// calls run at once (at most one hedge per attempt).
	Hedge bool
	// HedgeDelay fixes the straggler threshold; > 0 implies Hedge. When
	// zero with Hedge set, the delay is derived from observed attempt
	// latencies (2x the p95 of a sliding window), so only genuine tail
	// stragglers are duplicated; until a first latency sample exists no
	// hedge fires.
	HedgeDelay time.Duration
}

// Stats is a snapshot of a Dispatcher: counters cumulative over its
// lifetime, plus which backends are live right now. It is the dispatch
// block of simd's GET /v1/stats, and what chaos and hedging tests read.
type Stats struct {
	// Hedges counts hedge attempts launched; HedgeWins counts shards
	// whose winning result came from the hedge rather than the primary.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Probes counts asynchronous revival probes launched on dead
	// backends.
	Probes int64 `json:"probes"`
	// Healthy names the backends currently considered live (see
	// Dispatcher.Healthy) — the first thing "why was this sweep slow"
	// needs.
	Healthy []string `json:"healthy"`
}

// Dispatcher runs units over a fixed set of backends. It implements
// sim.ShardRunner, so a sim.Session routes through it via SetRunner. Safe
// for concurrent RunShards calls — a session issues one per unit in
// flight; backend health is shared across them, which is what lets a
// serving coordinator stop hammering a worker that died.
type Dispatcher struct {
	backends []*backendState
	opts     Options
	// sem is the dispatcher-wide in-flight slot pool, shared by every
	// RunShards call.
	sem chan struct{}

	mu sync.Mutex // guards the fields inside each backendState and the latency window
	// latWindow is a sliding window of successful attempt latencies, the
	// input to the derived hedge delay. latCount saturates at the window
	// size; latNext is the ring write position.
	latWindow [64]time.Duration
	latCount  int
	latNext   int

	hedges    atomic.Int64
	hedgeWins atomic.Int64
	probes    atomic.Int64
}

// backendState tracks one backend's scheduling state.
type backendState struct {
	b        Backend
	inflight int
	fails    int // consecutive failures; Options.FailThreshold marks dead
	// deadSince is when fails crossed the threshold (or the last failed
	// revival probe); zero while live.
	deadSince time.Time
	// asyncProbe marks an in-flight background Probe call — the
	// single-prober invariant. Only probe itself clears it; settle (a
	// shard outcome) never does.
	asyncProbe bool
}

// New returns a Dispatcher over the given backends. At least one backend
// is required; zero Options fields take the documented defaults.
func New(backends []Backend, opts Options) (*Dispatcher, error) {
	if len(backends) == 0 {
		return nil, errors.New("dispatch: no backends")
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2 * len(backends)
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.ReviveAfter <= 0 {
		opts.ReviveAfter = 15 * time.Second
	}
	d := &Dispatcher{opts: opts, sem: make(chan struct{}, opts.MaxInFlight)}
	for _, b := range backends {
		d.backends = append(d.backends, &backendState{b: b})
	}
	return d, nil
}

// RunShards implements sim.ShardRunner: the specs are one unit, run through
// the retry/failover policy. It never gives up on the unit as a whole: a
// member that exhausts its attempts (or hits an error no backend can fix)
// is abandoned — its outcome carries the attempts spent and the terminal
// error — and the rest keep executing. The returned error is ctx's own,
// when it ended before the unit did.
func (d *Dispatcher) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	out := make([]sim.Outcome, len(specs))
	pending := make([]int, len(specs))
	for i := range pending {
		pending[i] = i
	}
	d.runAttempts(ctx, specs, pending, out)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// attemptTimeout resolves the deadline of one backend call carrying insts
// instructions of budget in all: the configured bound, a budget-derived
// default, or none (negative option).
func (d *Dispatcher) attemptTimeout(insts int64) time.Duration {
	switch {
	case d.opts.AttemptTimeout > 0:
		return d.opts.AttemptTimeout
	case d.opts.AttemptTimeout < 0:
		return 0
	default:
		return 30*time.Second + time.Duration(insts)*time.Microsecond
	}
}

// runAttempts is the per-unit retry/failover policy: every attempt sends
// the members still pending as one backend call, a member that succeeded
// (or was judged unrunnable) is finished, and only the members that failed
// retryably ride the next one — so Attempts counts the calls a member rode
// in. A dispatcher-wide slot is held only while a backend call is in flight
// — never across a backoff sleep — so one unit retrying against a flaky
// backend cannot stall others that could run on healthy idle backends.
func (d *Dispatcher) runAttempts(ctx context.Context, specs []sim.ShardSpec, pending []int, out []sim.Outcome) {
	var lastBackend *backendState
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt == d.opts.Attempts {
			for _, i := range pending {
				out[i].Err = fmt.Errorf("shard failed after %d attempts: %w", attempt, out[i].Err)
			}
			return
		}
		if attempt > 0 {
			// Full-jitter backoff before every retry: the cap doubles per
			// attempt and the sleep is drawn uniformly from [0, cap), so
			// units that failed together spread out instead of hammering
			// a recovering worker in lockstep. Context-aware so a
			// cancelled run does not sit in a sleep.
			capDelay := d.opts.Backoff << (attempt - 1)
			delay := time.Duration(d.rand() * float64(capDelay))
			select {
			case <-ctx.Done():
				for _, i := range pending {
					out[i].Err = ctx.Err()
				}
				return
			case <-time.After(delay):
			}
		}
		send := make([]sim.ShardSpec, len(pending))
		for k, i := range pending {
			send[k] = specs[i]
		}
		res, bs, err := d.raceAttempt(ctx, send, lastBackend)
		var retry []int
		for k, i := range pending {
			last := out[i].Err
			out[i].Attempts++
			switch {
			case err == nil && res[k].Err == nil:
				out[i].Shard, out[i].Err = res[k].Shard, nil
			case ctx.Err() != nil:
				out[i].Err = ctx.Err()
			case err != nil && last == nil:
				// Nothing eligible to run on.
				out[i].Err = err
			case err != nil:
				out[i].Err = fmt.Errorf("%w (last error: %v)", err, last)
			case errors.Is(res[k].Err, sim.ErrInvalidSpec):
				// The shard itself is unrunnable; retrying elsewhere cannot
				// help.
				out[i].Err = res[k].Err
			default:
				out[i].Err = fmt.Errorf("backend %s: %w", bs.b.Name(), res[k].Err)
				retry = append(retry, i)
			}
		}
		pending, lastBackend = retry, bs
	}
}

// rand returns one uniform [0,1) draw from the configured jitter source.
func (d *Dispatcher) rand() float64 {
	if d.opts.Rand != nil {
		return d.opts.Rand()
	}
	return rand.Float64()
}

// attemptResult is one backend call's answer inside a raceAttempt: one
// outcome per member sent.
type attemptResult struct {
	res   []sim.Outcome
	bs    *backendState
	hedge bool
}

// raceAttempt makes one logical attempt at the members in send: a primary
// backend call, plus — when hedging is enabled and the primary outlives the
// hedge delay — a duplicate of the same members on a second live backend. A
// member that succeeded on either side is done; the answer that completes
// them all wins and cancels the other call, whose backend settles its
// health on its own goroutine (a hedge cancellation is never blamed) and
// whose answer is discarded. The primary holds a dispatcher-wide slot until
// it returns; a hedge rides that slot rather than taking its own, so the
// bound is "at most MaxInFlight primaries, each with at most one hedge" (a
// cancelled loser still winding down is not counted) and a backlog cannot
// starve hedging. Returns one outcome per member and the backend that
// answered last, or the error that kept any call from being made (ctx
// ended waiting for a slot; no backend live).
func (d *Dispatcher) raceAttempt(ctx context.Context, send []sim.ShardSpec, avoid *backendState) ([]sim.Outcome, *backendState, error) {
	// Take a dispatcher-wide slot for the primary, so concurrent RunShards
	// calls cannot multiply the in-flight bound.
	select {
	case d.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	// A retry avoids the backend that just failed when any other live one
	// exists — the failover choice; alone, retrying on it beats giving up.
	primary := d.pick(avoid)
	if primary == nil && avoid != nil {
		primary = d.pick(nil)
	}
	if primary == nil {
		<-d.sem
		return nil, nil, fmt.Errorf("all %d backends dead", len(d.backends))
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	resc := make(chan attemptResult, 2) // buffered: a loser never blocks
	go func() {
		res := d.callOn(actx, primary, send)
		<-d.sem
		resc <- attemptResult{res: res, bs: primary}
	}()

	var hedgec <-chan time.Time
	if delay, ok := d.hedgeDelay(); ok {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedgec = timer.C
	}

	var merged []sim.Outcome
	launched := 1
	for {
		select {
		case res := <-resc:
			launched--
			if merged == nil {
				merged = res.res
			}
			failed := false
			for k := range merged {
				if merged[k].Err != nil {
					merged[k] = res.res[k]
					failed = failed || merged[k].Err != nil
				}
			}
			if failed && launched > 0 {
				continue // the other call is still racing; wait for it
			}
			if !failed {
				cancel() // the loser, if any, aborts promptly
				if res.hedge {
					d.hedgeWins.Add(1)
				}
			}
			return merged, res.bs, nil
		case <-hedgec:
			hedgec = nil // at most one hedge per attempt
			// A hedge needs a *different* live backend: duplicating a unit
			// onto the worker already running it cuts no tail latency.
			hb := d.pick(primary)
			if hb == nil {
				continue
			}
			d.hedges.Add(1)
			launched++
			go func() {
				resc <- attemptResult{res: d.callOn(actx, hb, send), bs: hb, hedge: true}
			}()
		}
	}
}

// callOn runs one backend call and settles that backend's health, once for
// the call however many members it carried. actx is the attempt's
// cancellable context: blame is judged against it, so a call cancelled
// because the run ended or the other side of a hedge won is never a backend
// failure. A call that fails as a whole — the backend's own error, or an
// answer of the wrong length — fails every member.
func (d *Dispatcher) callOn(actx context.Context, bs *backendState, send []sim.ShardSpec) []sim.Outcome {
	// Bound the call so a hung worker becomes a retryable failure the
	// failover machinery handles, instead of wedging the run.
	var insts int64
	for i := range send {
		insts += send[i].Insts
	}
	cctx, to := actx, d.attemptTimeout(insts)
	if to > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(actx, to)
		defer cancel()
	}
	start := time.Now()
	res, err := bs.b.RunShards(cctx, send)
	switch {
	case err != nil && cctx.Err() != nil && actx.Err() == nil:
		// The attempt's own deadline fired. That is these shards' failure,
		// so the backend's context.DeadlineExceeded must not travel up the
		// chain looking like a cancelled run.
		err = fmt.Errorf("attempt timed out after %v", to)
	case err == nil && len(res) != len(send):
		err = fmt.Errorf("backend answered %d outcomes for %d shards", len(res), len(send))
	}
	if err != nil {
		res = make([]sim.Outcome, len(send))
		for k := range res {
			res[k].Err = err
		}
	}
	// Only failures attributable to the backend count toward its health:
	// a cancelled run, a lost hedge race, or an unrunnable shard says
	// nothing about the worker. An attempt timeout (cctx expired, actx
	// did not) does blame the backend — that is exactly the hung-worker
	// case.
	ok, blame := true, false
	for k := range res {
		if err := res[k].Err; err != nil {
			ok, blame = false, blame || !errors.Is(err, sim.ErrInvalidSpec)
		}
	}
	d.settle(bs, ok, blame && actx.Err() == nil)
	if ok {
		d.observeLatency(time.Since(start))
	}
	return res
}

// observeLatency records one successful attempt's latency in the sliding
// window behind the derived hedge delay.
func (d *Dispatcher) observeLatency(dur time.Duration) {
	d.mu.Lock()
	d.latWindow[d.latNext] = dur
	d.latNext = (d.latNext + 1) % len(d.latWindow)
	if d.latCount < len(d.latWindow) {
		d.latCount++
	}
	d.mu.Unlock()
}

// hedgeDelay resolves the straggler threshold for one attempt: the fixed
// HedgeDelay when set, otherwise twice the p95 of the observed latency
// window. Reports false when hedging is off or no sample exists yet —
// with nothing observed there is no notion of "straggling".
func (d *Dispatcher) hedgeDelay() (time.Duration, bool) {
	if d.opts.HedgeDelay > 0 {
		return d.opts.HedgeDelay, true
	}
	if !d.opts.Hedge {
		return 0, false
	}
	d.mu.Lock()
	n := d.latCount
	samples := make([]time.Duration, n)
	copy(samples, d.latWindow[:n])
	d.mu.Unlock()
	if n == 0 {
		return 0, false
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	delay := 2 * samples[(n*95)/100]
	if delay <= 0 {
		return 0, false
	}
	return delay, true
}

// maybeProbe launches one asynchronous revival probe on a dead backend
// whose cooldown expired. The asyncProbe flag is the single-prober
// invariant: at most one probe per backend is in flight, and only probe
// itself clears the flag — a shard settling concurrently cannot. Caller
// holds d.mu; the probe runs on its own goroutine with its own timeout so
// scheduling never blocks on a health check.
func (d *Dispatcher) maybeProbe(bs *backendState) {
	if bs.fails < d.opts.FailThreshold || bs.asyncProbe || time.Since(bs.deadSince) < d.opts.ReviveAfter {
		return
	}
	bs.asyncProbe = true
	d.probes.Add(1)
	go d.probe(bs)
}

// probe runs one revival probe to completion and applies the verdict: a
// success fully revives the backend; a failure restarts its dead period.
func (d *Dispatcher) probe(bs *backendState) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	err := bs.b.Probe(ctx)
	cancel()
	d.mu.Lock()
	defer d.mu.Unlock()
	bs.asyncProbe = false
	switch {
	case err == nil:
		bs.fails = 0
		bs.deadSince = time.Time{}
	case bs.fails >= d.opts.FailThreshold:
		// Still dead: restart the cooldown. A backend revived meanwhile
		// (a pre-death in-flight shard succeeded) keeps its live state —
		// a stale probe verdict must not re-kill it.
		bs.deadSince = time.Now()
	}
}

// pick selects the live backend with the fewest in-flight shards other
// than avoid, reserving a slot on it; nil when there is none. Dead
// backends never receive work — they revive only through the asynchronous
// health check launched here once their cooldown expires, so revival
// never sacrifices a real shard attempt.
func (d *Dispatcher) pick(avoid *backendState) *backendState {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best *backendState
	for _, bs := range d.backends {
		d.maybeProbe(bs)
		if bs == avoid || bs.fails >= d.opts.FailThreshold {
			continue
		}
		if best == nil || bs.inflight < best.inflight {
			best = bs
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// settle releases the slot pick reserved and updates the backend's
// health: a success fully revives it; a failure the backend is to blame
// for counts toward (or extends) its dead period. Failures caused by a
// cancelled context or an invalid spec leave health untouched.
func (d *Dispatcher) settle(bs *backendState, ok, blame bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bs.inflight--
	switch {
	case ok:
		bs.fails = 0
		bs.deadSince = time.Time{}
	case blame:
		bs.fails++
		if bs.fails >= d.opts.FailThreshold {
			bs.deadSince = time.Now()
		}
	}
}

// Stats returns a snapshot of the dispatcher's counters and backend
// health.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Hedges:    d.hedges.Load(),
		HedgeWins: d.hedgeWins.Load(),
		Probes:    d.probes.Load(),
		Healthy:   d.Healthy(),
	}
}

// Healthy returns the names of the backends currently considered live,
// in configuration order (empty, never nil, when all are dead).
func (d *Dispatcher) Healthy() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.backends))
	for _, bs := range d.backends {
		if bs.fails < d.opts.FailThreshold {
			out = append(out, bs.b.Name())
		}
	}
	return out
}
