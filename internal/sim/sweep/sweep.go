// Package sweep is the async multi-tenant job service that turns the
// stateless run API into a front door: clients submit a sim.Spec and get
// a sweep ID back immediately, then poll its status and fetch the final
// report when the sweep lands, or submit and wait in one call (Run). It is
// the coordinator behind every spec simd's front door runs.
//
// The coordinator schedules nothing: an admitted sweep starts at once, on
// a context naming its tenant (sim.WithTenant), and the session running it
// grants its slots to the units of all its runs, taking turns between
// tenants. The coordinator's only goroutines are its running sweeps, and
// two mechanisms bound it:
//
//   - Admission against one budget. A grid over MaxShards shards, or a
//     malformed spec, is sim.ErrInvalidSpec (HTTP 400). A running sweep is
//     charged its report's entries and sweepCost; a tenant's hold at most
//     a share, everything held two: past either, once the oldest
//     uncollected reports are released, a submit is ErrQueueFull (HTTP
//     429), so memory and goroutines follow from MaxShards alone.
//
//   - Bounded retention. Terminal sweeps (done, failed, cancelled) are kept
//     for polling, but only maxRetained of them and only for Retain; a sweep
//     Run waits on takes no slot and goes once answered. Beyond either bound
//     the oldest-finished are evicted — lazily, by every call that could see
//     them and after every finished run, so no timer is involved and an
//     expired sweep is never visible. A tenant's entry goes with its last
//     retained sweep. A done sweep's report is held until the first Report
//     hands it over or the budget releases it, and then ErrReportGone: its
//     client re-submits the spec, which the session's result cache serves.
//
// Execution is delegated to a RunFunc — in production sim.Session.Run,
// optionally routed through a shared dispatch.Dispatcher. Progress is
// counted through the observational sim.WithShardDone context hook, so the
// final report stays byte-identical to a direct Session.Run of the same
// spec; a sweep's shards are served only in that report.
package sweep

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
)

// State is a sweep's position in the lifecycle state machine:
//
//	running → done | failed | cancelled
type State string

const (
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: the sweep holds no
// resources, its outcome is immutable, and retention may evict it.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submit past the tenant's share or the budget —
	// the admission-control signal behind 429 + Retry-After.
	ErrQueueFull = errors.New("sweep: shard budget full")
	// ErrNotFound reports an unknown (or already evicted) sweep ID.
	ErrNotFound = errors.New("sweep: no such sweep")
	// ErrNotTerminal rejects a result fetch before the sweep finished —
	// the 409 the poll loop spins on.
	ErrNotTerminal = errors.New("sweep: not terminal yet")
	// ErrTerminal rejects cancelling a sweep that already finished.
	ErrTerminal = errors.New("sweep: already terminal")
	// ErrCancelled marks the error Report returns for a cancelled sweep —
	// the 410 — whose text stays the sweep's own.
	ErrCancelled = errors.New("sweep: cancelled")
	// ErrReportGone rejects fetching a done sweep's report once an earlier
	// Report handed it over or the budget released it — the
	// other 410, whose text says which.
	ErrReportGone = errors.New("sweep: report gone")
	// ErrClosed rejects submits to a closed coordinator.
	ErrClosed = errors.New("sweep: coordinator closed")
)

// RunFunc executes one sweep's spec and returns its report. Production
// wires sim.Session.Run; tests inject stubs with controlled timing. The
// context carries the sweep's cancellation and its sim.WithShardDone
// progress hook, which implementations must honor, and its tenant.
type RunFunc func(ctx context.Context, spec *sim.Spec) (*sim.Report, error)

// maxRetained is how many terminal sweeps are held at once, however young:
// memory bounded by config, one value for every caller.
const maxRetained = 256

// sweepCost is a running sweep's charge beyond its report's entries: its
// job, context and goroutines, ≈ 15 KB (TestBudgetBoundsMintedTenants).
const sweepCost = 32

// heldShards is a report's entries, shards plus merged.
func heldShards(rep *sim.Report) int {
	if rep == nil {
		return 0
	}
	return len(rep.Shards) + len(rep.Merged)
}

// Options tune a Coordinator. Run is required; every other zero field
// takes the default noted on it.
type Options struct {
	// Run executes one sweep (required).
	Run RunFunc
	// MaxShards is the largest grid one sweep may expand to (default 4096,
	// at most math.MaxInt/8). A tenant's share is a one-seed MaxShards
	// grid's charge, 2 × MaxShards + sweepCost entries, the budget twice
	// that. A charged entry keeps ≤ 1 KiB running (TestGateBacklogBound),
	// ≤ 4 KiB uncollected (TestHeldReportsWithinBudget): ≤ 16 or 64 MiB.
	MaxShards int
	// Retain is how long terminal sweeps stay pollable (default 15m).
	Retain time.Duration
	// Clock stamps submissions and finishes and ages retention (default
	// clock.Real); tests pass a clock.Virtual.
	Clock clock.Clock
}

// Progress counts a sweep's shard-level advancement, fed by the
// sim.WithShardDone hook. Done includes Cached; Failed counts shards
// abandoned with a terminal error (only ever non-zero under
// AllowPartial, mirroring failed_shards in the final report).
type Progress struct {
	TotalShards  int `json:"total_shards"`
	DoneShards   int `json:"done_shards"`
	CachedShards int `json:"cached_shards"`
	FailedShards int `json:"failed_shards"`
}

// Status is the externally visible snapshot of one sweep — the body of
// GET /v1/sweeps/{id} and of each listing entry. A sweep starts as it is
// admitted, so StartedAt is SubmittedAt.
type Status struct {
	ID          string     `json:"id"`
	Tenant      string     `json:"tenant"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Progress    Progress   `json:"progress"`
	// Error carries the terminal error of a failed (or cancelled) sweep.
	Error string `json:"error,omitempty"`
}

// TenantStats are one tenant's running sweeps and the entries they hold
// of its share, and cumulative outcome counters. A tenant is listed while
// it has a sweep running or retained; once its last retained sweep is
// evicted its entry is dropped, and the counters restart from zero if the
// name comes back.
type TenantStats struct {
	Running     int   `json:"running"`
	HeldRunning int   `json:"held_running"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Cancelled   int64 `json:"cancelled"`
}

// Stats is the coordinator-wide snapshot /v1/stats embeds: the Budget of
// entries, two tenants' shares, and what is held running and uncollected.
type Stats struct {
	Running         int                    `json:"running"`
	Retained        int                    `json:"retained"`
	Budget          int                    `json:"budget"`
	HeldRunning     int                    `json:"held_running"`
	HeldUncollected int                    `json:"held_uncollected"`
	Tenants         map[string]TenantStats `json:"tenants"`
}

// job is one sweep's full record. Every mutable field, progress included,
// is guarded by the coordinator's mutex.
type job struct {
	id     string
	tenant string
	seq    uint64
	spec   *sim.Spec

	state           State
	submitted       time.Time
	finished        time.Time
	cancelRequested bool
	cancel          context.CancelFunc
	report          *sim.Report // a done sweep's, until handed over or released
	gone            string      // why a done sweep's report is no longer held
	err             error
	prog            Progress
	landed          chan struct{} // closed by run: state and err are final
	waited          bool          // Run holds it: landed, it stays off the retention list
	charge          int           // entries held: its report-to-be and sweepCost while running, its report while uncollected
}

// tenant is one tenant's gauge and counters.
type tenant struct {
	running, charged int // its running sweeps and their charges, held to the share
	// retained counts the tenant's sweeps on the retention list; with
	// nothing running, zero means the entry can go.
	retained           int
	done, failed, canc int64
}

// Coordinator is the async job service. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	tenants map[string]*tenant
	sweeps  map[string]*job
	done    []*job // terminal sweeps in finish order — the retention list
	charged int    // the running sweeps' charges
	held    int    // the retention list's charges: its uncollected reports
	share   int    // the entries a tenant's running sweeps may hold
	budget  int    // the entries everything held may: two shares
	seq     uint64
	closed  bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // the running sweeps
}

// New returns a Coordinator ready for submits. It starts no goroutine of
// its own: each running sweep is one, until Close.
func New(opts Options) (*Coordinator, error) {
	if opts.Run == nil {
		return nil, errors.New("sweep: Options.Run is required")
	}
	if opts.MaxShards <= 0 {
		opts.MaxShards = 4096
	}
	if opts.MaxShards > math.MaxInt/8 {
		return nil, fmt.Errorf("sweep: MaxShards %d is past %d, where its budget overflows an int", opts.MaxShards, math.MaxInt/8)
	}
	if opts.Retain <= 0 {
		opts.Retain = 15 * time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:       opts,
		share:      2*opts.MaxShards + sweepCost,
		budget:     4*opts.MaxShards + 2*sweepCost,
		tenants:    map[string]*tenant{},
		sweeps:     map[string]*job{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	return c, nil
}

// Close stops the coordinator: every running sweep's context is cancelled,
// and Close blocks until each has landed. Submits after Close report
// ErrClosed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.baseCancel() // running sweeps unwind through ctx cancellation
	c.wg.Wait()
}

// newID mints a sweep ID: a monotonic sequence for ordering plus random
// bytes so IDs are not guessable across tenants.
func (c *Coordinator) newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; degrade to
		// sequence-only IDs rather than refusing service.
		return fmt.Sprintf("sw-%06d", c.seq)
	}
	return fmt.Sprintf("sw-%06d-%s", c.seq, hex.EncodeToString(b[:]))
}

// Submit validates and starts a sweep for tenant, returning its status as
// admitted: running, with the minted ID. Invalid specs, and grids over
// MaxShards, report sim.ErrInvalidSpec; a sweep past the tenant's share or
// the budget gets ErrQueueFull.
func (c *Coordinator) Submit(tenant string, spec *sim.Spec) (Status, error) {
	_, st, err := c.submit(tenant, spec, false)
	return st, err
}

// submit is Submit, also handing back the job; waited marks it as Run's.
// It launches the sweep's run goroutine, on a context naming the tenant.
func (c *Coordinator) submit(name string, spec *sim.Spec, waited bool) (*job, Status, error) {
	if name == "" {
		return nil, Status{}, fmt.Errorf("%w: empty tenant", sim.ErrInvalidSpec)
	}
	// Validation touches no state; GridSize counts the grid without
	// building it, so an oversize spec allocates nothing.
	cost, err := spec.GridSize()
	if err != nil {
		return nil, Status{}, err
	}
	if cost > c.opts.MaxShards {
		return nil, Status{}, fmt.Errorf("%w: %d shards exceed the limit %d", sim.ErrInvalidSpec, cost, c.opts.MaxShards)
	}
	// Shards, a merged entry per seed group and the sweep: no landing grows it.
	charge := cost + cost/max(len(spec.Seeds), spec.SeedCount, 1) + sweepCost
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, Status{}, ErrClosed
	}
	c.evictLocked()
	tq := c.tenants[name]
	if tq == nil {
		tq = &tenant{} // listed only once admitted
	}
	if tq.charged+charge > c.share || c.charged+charge > c.budget {
		return nil, Status{}, fmt.Errorf("%w: a sweep of %d entries does not fit: tenant %q runs %d of its %d, and %d of %d are held",
			ErrQueueFull, charge, name, tq.charged, c.share, c.charged+c.held, c.budget)
	}
	c.tenants[name] = tq
	c.releaseLocked(charge)
	c.seq++
	ctx, cancel := context.WithCancel(sim.WithTenant(c.baseCtx, name))
	j := &job{
		id:        c.newID(),
		tenant:    name,
		seq:       c.seq,
		spec:      spec,
		prog:      Progress{TotalShards: cost},
		state:     StateRunning,
		submitted: c.opts.Clock.Now(),
		cancel:    cancel,
		landed:    make(chan struct{}),
		waited:    waited,
		charge:    charge,
	}
	c.sweeps[j.id] = j
	c.charged += charge
	tq.running++
	tq.charged += charge
	c.wg.Add(1)
	go c.run(j, ctx)
	return j, c.statusLocked(j), nil
}

// Get returns a sweep's status snapshot.
func (c *Coordinator) Get(id string) (Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	j, ok := c.sweeps[id]
	if !ok {
		return Status{}, false
	}
	return c.statusLocked(j), true
}

// Report hands over a done sweep's final report: the first call returns
// it and the coordinator lets go of it, keeping the sweep's status, and
// every later one is ErrReportGone, as is a report the budget released
// before anyone asked. ErrNotFound for unknown IDs, ErrNotTerminal
// while running, and the sweep's terminal error for failed or cancelled
// sweeps; a cancelled sweep's satisfies errors.Is(err, ErrCancelled).
func (c *Coordinator) Report(id string) (*sim.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	j, ok := c.sweeps[id]
	if !ok {
		return nil, ErrNotFound
	}
	rep, err := j.outcome()
	c.letGoLocked(j, goneCollected)
	return rep, err
}

// Run submits spec as Submit does, hands the admitted status to admitted
// (unless nil) before it waits, waits on that sweep, returns what Report
// would and forgets it: it never takes a retention slot from a sweep still
// to be fetched. If ctx ends first, Run cancels the sweep, retained like any
// cancelled one once it lands, and returns ctx.Err(); a sweep landed by the
// time Run looks is returned even when ctx has ended too.
func (c *Coordinator) Run(ctx context.Context, tenant string, spec *sim.Spec, admitted func(Status)) (*sim.Report, error) {
	j, st, err := c.submit(tenant, spec, true)
	if err != nil {
		return nil, err
	}
	if admitted != nil {
		admitted(st)
	}
	return c.await(ctx, j)
}

// await is Run's wait on the job it submitted.
func (c *Coordinator) await(ctx context.Context, j *job) (*sim.Report, error) {
	select {
	case <-j.landed:
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !j.state.Terminal() {
		j.waited = false // no one will read its answer: retain it
		j.cancelRequested = true
		j.cancel()
		return nil, ctx.Err()
	}
	c.dropLocked(j)
	return j.outcome()
}

// Cancel requests a sweep's cancellation: its context is cancelled, and it
// lands cancelled once execution unwinds. Cancelling a terminal sweep
// reports ErrTerminal.
func (c *Coordinator) Cancel(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	j, ok := c.sweeps[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	if j.state.Terminal() {
		return c.statusLocked(j), ErrTerminal
	}
	j.cancelRequested = true
	j.cancel()
	return c.statusLocked(j), nil
}

// List returns the status of every retained sweep, newest submission
// first; a non-empty tenant filters to that tenant.
func (c *Coordinator) List(tenant string) []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	out := make([]Status, 0, len(c.sweeps))
	for _, j := range c.sweeps {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, c.statusLocked(j))
	}
	sort.Slice(out, func(a, b int) bool { return c.sweeps[out[a].ID].seq > c.sweeps[out[b].ID].seq })
	return out
}

// Stats snapshots the coordinator's gauges and per-tenant counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	s := Stats{Retained: len(c.done), Budget: c.budget, HeldRunning: c.charged, HeldUncollected: c.held, Tenants: map[string]TenantStats{}}
	for name, tq := range c.tenants {
		s.Running += tq.running
		s.Tenants[name] = TenantStats{
			Running:     tq.running,
			HeldRunning: tq.charged,
			Done:        tq.done,
			Failed:      tq.failed,
			Cancelled:   tq.canc,
		}
	}
	return s
}

// run executes one sweep to a terminal state: it lands the sweep, appends
// it to the retention list unless Run holds it, and wakes Run. The
// shard-done hook feeds the job's progress counters under c.mu, which is
// safe because the hook fires only on the session's goroutines inside
// RunFunc, while run holds no lock; the final report is whatever RunFunc
// returned, untouched — byte-identity with a direct Session.Run is
// inherited, not re-established.
func (c *Coordinator) run(j *job, ctx context.Context) {
	defer c.wg.Done()
	pctx := sim.WithShardDone(ctx, func(sh sim.Shard, err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil {
			j.prog.FailedShards++
			return
		}
		j.prog.DoneShards++
		if sh.Cached {
			j.prog.CachedShards++
		}
	})
	rep, err := c.opts.Run(pctx, j.spec)
	j.cancel() // release the context's resources whatever the outcome

	c.mu.Lock()
	defer c.mu.Unlock()
	tq := c.tenants[j.tenant]
	tq.running--
	tq.charged -= j.charge
	c.charged -= j.charge
	j.spec, j.cancel = nil, nil // a landed sweep is kept as its status
	j.finished, j.err = c.opts.Clock.Now(), err
	switch {
	case err == nil:
		j.state, j.report = StateDone, rep
		tq.done++
	case j.cancelRequested || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		tq.canc++
	default:
		j.state = StateFailed
		tq.failed++
	}
	if !j.waited {
		c.done = append(c.done, j)
		tq.retained++
		// Never over its running charge, so a landing releases nothing.
		j.charge = min(heldShards(j.report), j.charge)
		c.held += j.charge
	}
	close(j.landed)
	c.evictLocked()
}

// evictLocked enforces retention over the terminal list: beyond
// maxRetained, or past the Retain TTL, the oldest-finished sweeps are
// forgotten. Only terminal sweeps are ever in the list, so a running sweep
// is structurally unevictable. A tenant goes with its last retained sweep
// unless it still has a sweep running, so the tenant table is bounded by
// the same limits as the sweeps.
func (c *Coordinator) evictLocked() {
	now := c.opts.Clock.Now()
	for len(c.done) > 0 {
		j := c.done[0]
		if !j.state.Terminal() {
			panic("sweep: non-terminal sweep on the retention list")
		}
		if len(c.done) > maxRetained || now.Sub(j.finished) > c.opts.Retain {
			c.done = c.done[1:]
			c.held -= j.charge
			c.tenants[j.tenant].retained--
			c.dropLocked(j)
			continue
		}
		break
	}
}

// dropLocked forgets a terminal sweep off the retention list, and its tenant
// if that has nothing retained or running (or is gone already).
func (c *Coordinator) dropLocked(j *job) {
	delete(c.sweeps, j.id)
	if tq := c.tenants[j.tenant]; tq != nil && tq.retained == 0 && tq.running == 0 {
		delete(c.tenants, j.tenant)
	}
}

// Why a done sweep's report is gone, as ErrReportGone's text says it.
const (
	goneCollected = "collected by an earlier fetch"
	goneReleased  = "released uncollected to make room in the shard budget"
)

// releaseLocked lets go of uncollected reports, oldest first, until need
// more entries fit the budget; running sweeps stay, so admission checks first.
func (c *Coordinator) releaseLocked(need int) {
	for i := 0; c.charged+c.held+need > c.budget && i < len(c.done); i++ {
		c.letGoLocked(c.done[i], goneReleased)
	}
}

// letGoLocked drops a retained sweep's report, if it still holds one, for
// the reason a later Report gives; the sweep stays as its status. The
// report of a sweep Run waits on is Run's to return, never let go.
func (c *Coordinator) letGoLocked(j *job, why string) {
	if j.report == nil || j.waited {
		return
	}
	c.held -= j.charge
	j.report, j.gone, j.charge = nil, why, 0
}

// statusLocked snapshots a job. Caller holds c.mu.
func (c *Coordinator) statusLocked(j *job) Status {
	started := j.submitted
	st := Status{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		SubmittedAt: j.submitted,
		StartedAt:   &started,
		Progress:    j.prog,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// outcome is a sweep's answer as Report and Run give it; caller holds c.mu.
func (j *job) outcome() (*sim.Report, error) {
	switch j.state {
	case StateDone:
		if j.report == nil {
			return nil, fmt.Errorf("%w: %s; re-submit its spec", ErrReportGone, j.gone)
		}
		return j.report, nil
	case StateFailed:
		return nil, j.err
	case StateCancelled:
		return nil, cancelledError{j.err}
	default:
		return nil, ErrNotTerminal
	}
}

// cancelledError is a cancelled sweep's terminal error as Report returns
// it: the sweep's own text, marked ErrCancelled.
type cancelledError struct{ error }

func (e cancelledError) Is(target error) bool { return target == ErrCancelled }
func (e cancelledError) Unwrap() error        { return e.error }
