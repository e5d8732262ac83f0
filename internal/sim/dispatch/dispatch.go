// Package dispatch runs units of a shard grid on pluggable execution
// backends — the missing half of the sim layer's "remote shards fold
// without re-deriving" promise. A Backend is a sim.ShardRunner with a name
// and a liveness probe: LocalBackend is a sim.Session, and HTTPBackend
// speaks the simd worker protocol (POST /v1/shards). The Dispatcher is one
// unit's retry policy: a sim.Session routed through it (SetRunner) resolves
// its grid against its result cache, plans the misses into units and hands
// each unit — a trace coordinate's shards, so a worker streams the
// coordinate once for all of them — to Dispatcher.RunShards as one call,
// all at once. It sends a unit to a backend under its in-flight bound (the
// grid's only one), re-sends the members that failed retryably with backoff,
// fails over when a backend dies, and hedges stragglers. It only
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

	"rebalance/internal/clock"
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
	// background goroutine and must give up when ctx ends.
	Probe(ctx context.Context) error
}

// The failure policy: constants, one value for every caller; tests step them on virtual time.
const (
	attempts       = 3                      // calls per member: a failover and one more try, then it is abandoned
	backoffCap     = 100 * time.Millisecond // caps the full-jitter sleep before a second call; doubles per later call
	failThreshold  = 3                      // consecutive blamed calls marking a backend dead: one is noise, three a dead worker
	reviveAfter    = 15 * time.Second       // a dead backend's cooldown before a probe: one health check per cooldown
	probeTimeout   = 5 * time.Second        // bounds a probe; under reviveAfter, so a backend's probes never overlap
	attemptBase    = 30 * time.Second       // + attemptPerInst per instruction sent bounds a call: only a hung worker hits it
	attemptPerInst = time.Microsecond
	latSamples     = 64 // recent successful-call latencies; the hedge delay is twice their p95
)

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
// each field; the failure policy itself is the constants above.
type Options struct {
	// MaxInFlight caps the backend calls executing at once across all
	// backends and every run sharing this dispatcher (default 2 per
	// backend). It is the one bound on a dispatched grid's units: a routed
	// session hands over every unit at once, its workers deciding only how
	// the grid is cut.
	MaxInFlight int
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
	// calls run at once (at most one hedge per attempt). The straggler
	// threshold is twice the p95 of the latency window; until a first
	// sample exists no hedge fires.
	Hedge bool
	// Clock is what every wait and timestamp of the policy reads (default
	// clock.Real); tests pass a clock.Virtual to step the schedule.
	Clock clock.Clock
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
// for concurrent RunShards calls — a session issues one per unit, all at
// once; backend health is shared across them, which is what lets a
// serving coordinator stop hammering a worker that died.
type Dispatcher struct {
	backends []*backendState
	opts     Options
	// sem is the dispatcher-wide in-flight slot pool, shared by every
	// RunShards call.
	sem chan struct{}

	mu sync.Mutex // guards the fields inside each backendState and lat
	// lat is a sliding window of the last latSamples successful attempt
	// latencies, the input to the derived hedge delay.
	lat []time.Duration

	hedges    atomic.Int64
	hedgeWins atomic.Int64
	probes    atomic.Int64
}

// backendState tracks one backend's scheduling state.
type backendState struct {
	b        Backend
	inflight int
	fails    int // consecutive blamed calls; failThreshold marks dead
	// When fails crossed the threshold or a probe last launched; zero while live.
	deadSince time.Time
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
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
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
		if attempt == attempts {
			for _, i := range pending {
				out[i].Err = fmt.Errorf("shard failed after %d attempts: %w", attempt, out[i].Err)
			}
			return
		}
		if attempt > 0 {
			// Full-jitter backoff (see backoffCap), context-aware so a
			// cancelled run does not sit in a sleep.
			timer := d.opts.Clock.NewTimer(time.Duration(rand.Float64() * float64(backoffCap<<(attempt-1))))
			select {
			case <-ctx.Done():
				timer.Stop()
				for _, i := range pending {
					out[i].Err = ctx.Err()
				}
				return
			case <-timer.C:
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

	// The hedge timer starts before the primary does: whoever sees the
	// primary running knows whether a hedge is already due.
	var hedgec <-chan time.Time
	if delay, ok := d.hedgeDelay(); ok {
		timer := d.opts.Clock.NewTimer(delay)
		defer timer.Stop()
		hedgec = timer.C
	}
	resc := make(chan attemptResult, 2) // buffered: a loser never blocks
	go func() {
		res := d.callOn(actx, primary, send)
		<-d.sem
		resc <- attemptResult{res: res, bs: primary}
	}()

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
	to := attemptBase
	for i := range send {
		to += time.Duration(send[i].Insts) * attemptPerInst
	}
	cctx, cancel := d.opts.Clock.WithTimeout(actx, to)
	defer cancel()
	start := d.opts.Clock.Now()
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
		d.observeLatency(d.opts.Clock.Now().Sub(start))
	}
	return res
}

// observeLatency records one successful attempt's latency in the sliding
// window behind the derived hedge delay.
func (d *Dispatcher) observeLatency(dur time.Duration) {
	d.mu.Lock()
	d.lat = append(d.lat, dur)
	if len(d.lat) > latSamples {
		d.lat = d.lat[1:]
	}
	d.mu.Unlock()
}

// hedgeDelay resolves the straggler threshold for one attempt: twice the
// p95 of the observed latency window. Reports false when hedging is off or
// no sample exists yet — with nothing observed there is no notion of
// "straggling" — or the p95 is zero.
func (d *Dispatcher) hedgeDelay() (time.Duration, bool) {
	if !d.opts.Hedge {
		return 0, false
	}
	d.mu.Lock()
	samples := append([]time.Duration(nil), d.lat...)
	d.mu.Unlock()
	n := len(samples)
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
// whose cooldown expired, and restarts the cooldown: a failed probe leaves
// the backend dead for another reviveAfter, and since a probe gives up
// after probeTimeout, at most one per backend is in flight. Caller holds
// d.mu; the probe runs on its own goroutine so scheduling never blocks on a
// health check.
func (d *Dispatcher) maybeProbe(bs *backendState, now time.Time) {
	if bs.fails < failThreshold || now.Sub(bs.deadSince) < reviveAfter {
		return
	}
	bs.deadSince = now
	d.probes.Add(1)
	go func() { // a success fully revives the backend
		ctx, cancel := d.opts.Clock.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		if bs.b.Probe(ctx) == nil {
			d.mu.Lock()
			bs.fails = 0
			bs.deadSince = time.Time{}
			d.mu.Unlock()
		}
	}()
}

// pick selects the live backend with the fewest in-flight shards other
// than avoid, reserving a slot on it; nil when there is none. Dead
// backends never receive work — they revive only through the asynchronous
// health check launched here once their cooldown expires, so revival
// never sacrifices a real shard attempt.
func (d *Dispatcher) pick(avoid *backendState) *backendState {
	now := d.opts.Clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var best *backendState
	for _, bs := range d.backends {
		d.maybeProbe(bs, now)
		if bs == avoid || bs.fails >= failThreshold {
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
		if bs.fails >= failThreshold {
			bs.deadSince = d.opts.Clock.Now()
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
		if bs.fails < failThreshold {
			out = append(out, bs.b.Name())
		}
	}
	return out
}
