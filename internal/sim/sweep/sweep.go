// Package sweep is the async multi-tenant job service that turns the
// stateless run API into a front door: clients submit a sim.Spec and get
// a sweep ID back immediately, then poll its status and fetch the final
// report when the sweep lands, or submit and wait in one call (Run). It is
// the coordinator behind every spec simd's front door runs.
//
// Three mechanisms keep a shared coordinator fair and bounded:
//
//   - Per-tenant fair queueing. Each tenant has its own FIFO, served by
//     deficit round-robin: every visit grants a tenant quantum
//     shard-credits, and a queued sweep starts only when the tenant's
//     accumulated deficit covers its cost (its grid size in shards). A tenant submitting a thousand sweeps
//     therefore cannot starve another tenant's single job — backlogged
//     tenants take turns, weighted by how much work they ask for, not by
//     how often they ask.
//
//   - Admission control. Each tenant may hold at most QueueDepth queued
//     sweeps (ErrQueueFull — HTTP 429 — beyond it), and at most MaxRunning
//     sweeps execute at once coordinator-wide. Malformed specs are
//     rejected at submit with sim.ErrInvalidSpec (HTTP 400) before they
//     ever occupy a queue slot. How large a grid may be is the serving
//     front-end's limit (simd's -max-shards), applied before Submit.
//
//   - Bounded retention. Terminal sweeps (done, failed, cancelled) are kept
//     for polling, but only maxRetained of them and only for Retain; a sweep
//     Run waits on takes no slot and goes once answered. Beyond either bound
//     the oldest-finished are evicted — lazily, by every call that could see
//     them and after every finished run, so no timer is involved and an
//     expired sweep is never visible. Queued and running sweeps are never
//     evicted — only the terminal list is subject to retention — and a
//     tenant's own entry goes with its last retained sweep, so a long-lived
//     coordinator's memory stays proportional to its configured bounds, not
//     its uptime or the number of tenant names it has ever seen.
//
// Execution itself is delegated to a RunFunc — in production
// sim.Session.Run, optionally routed through a shared dispatch.Dispatcher
// so concurrent sweeps fan out over one worker fleet and deduplicate
// popular grid cells through one shard cache. Progress is counted
// through the observational sim.WithShardDone context hook, so the final
// report stays byte-identical to a direct Session.Run of the same spec; a
// sweep's shards are served only in that report.
//
// Submit, cancelling a queued sweep and a run's landing each run the
// round-robin under the lock they already hold, so a sweep submitted with
// a run slot free is running when Submit returns, and the coordinator's
// only goroutines are its running sweeps.
package sweep

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
)

// State is a sweep's position in the lifecycle state machine:
//
//	queued → running → done | failed | cancelled
//
// with one shortcut: a queued sweep cancels directly to cancelled without
// ever running.
type State string

const (
	StateQueued    State = "queued"
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
	// ErrQueueFull rejects a submit that would exceed the tenant's queue
	// depth — the admission-control signal behind 429 + Retry-After.
	ErrQueueFull = errors.New("sweep: tenant queue full")
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
	// ErrClosed rejects submits to a closed coordinator.
	ErrClosed = errors.New("sweep: coordinator closed")
)

// RunFunc executes one sweep's spec and returns its report. Production
// wires sim.Session.Run; tests inject stubs with controlled timing. The
// context carries the sweep's cancellation and its sim.WithShardDone
// progress hook, and implementations must honor both.
type RunFunc func(ctx context.Context, spec *sim.Spec) (*sim.Report, error)

// The round-robin's and retention's numbers: constants, one value for every caller.
const (
	quantum     = 64  // DRR credit per tenant visit, in shards: a costlier sweep waits rounds
	maxRetained = 256 // terminal sweeps held at once, however young: memory bounded by config
)

// Options tune a Coordinator. Run is required; every other zero field
// takes the default noted on it.
type Options struct {
	// Run executes one sweep (required).
	Run RunFunc
	// QueueDepth bounds each tenant's queued sweeps (default 64). The
	// bound is per tenant, not global: one tenant flooding its queue gets
	// ErrQueueFull while every other tenant still submits freely —
	// admission is itself tenant-fair.
	QueueDepth int
	// MaxRunning bounds concurrently executing sweeps coordinator-wide
	// (default 2). Sweeps beyond it wait in their tenant queues.
	MaxRunning int
	// Retain is how long terminal sweeps stay pollable (default 15m).
	Retain time.Duration
	// Clock stamps submissions, starts and finishes and ages retention
	// (default clock.Real); tests pass a clock.Virtual.
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
// GET /v1/sweeps/{id} and of each listing entry.
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

// TenantStats are one tenant's gauges (queued, running) and cumulative
// outcome counters. A tenant is listed while it has a sweep queued,
// running or retained; once its last retained sweep is evicted its entry
// is dropped, and the counters restart from zero if the name comes back.
type TenantStats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// Stats is the coordinator-wide snapshot /v1/stats embeds.
type Stats struct {
	Queued   int                    `json:"queued"`
	Running  int                    `json:"running"`
	Retained int                    `json:"retained"`
	Tenants  map[string]TenantStats `json:"tenants"`
}

// job is one sweep's full record. Every mutable field, progress included,
// is guarded by the coordinator's mutex.
type job struct {
	id     string
	tenant string
	seq    uint64
	spec   *sim.Spec
	cost   int

	state           State
	submitted       time.Time
	started         time.Time
	finished        time.Time
	cancelRequested bool
	cancel          context.CancelFunc
	report          *sim.Report
	err             error
	prog            Progress
	landed          chan struct{} // closed by finishLocked: state, report and err are final
	waited          bool          // Run holds it: landed, it stays off the retention list
}

// tenantQueue is one tenant's scheduling state.
type tenantQueue struct {
	name    string
	queue   []*job
	deficit int
	// charged marks that the tenant already received its quantum for the
	// current head-of-rotation visit, so a capacity stall does not grant
	// it again on resume.
	charged bool
	active  bool // member of Coordinator.active
	running int
	// retained counts the tenant's sweeps on the retention list; with an
	// empty queue and nothing running, zero means the entry can go.
	retained int
	done     int64
	failed   int64
	canc     int64
}

// Coordinator is the async job service. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	tenants map[string]*tenantQueue
	// active is the DRR rotation: tenants with a non-empty queue, in
	// visit order.
	active  []*tenantQueue
	sweeps  map[string]*job
	done    []*job // terminal sweeps in finish order — the retention list
	running int
	queued  int
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
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxRunning <= 0 {
		opts.MaxRunning = 2
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
		tenants:    map[string]*tenantQueue{},
		sweeps:     map[string]*job{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	return c, nil
}

// Close stops the coordinator: queued sweeps are cancelled, running
// sweeps' contexts are cancelled, and Close blocks until every run
// goroutine has exited. Submits after Close report ErrClosed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	now := c.opts.Clock.Now()
	for _, tq := range c.tenants {
		for _, j := range tq.queue {
			c.finishLocked(j, tq, StateCancelled, errors.New("sweep: coordinator closed"), now)
		}
		tq.queue = nil
		tq.active = false
	}
	c.active = nil
	c.queued = 0
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

// Submit validates and enqueues a sweep for tenant, returning its status
// as admitted — queued, with the minted ID — and then starts whatever the
// round-robin lets start. Invalid specs report sim.ErrInvalidSpec; a full
// tenant queue reports ErrQueueFull.
func (c *Coordinator) Submit(tenant string, spec *sim.Spec) (Status, error) {
	_, st, err := c.submit(tenant, spec, false)
	return st, err
}

// submit is Submit, also handing back the job; waited marks it as Run's.
func (c *Coordinator) submit(tenant string, spec *sim.Spec, waited bool) (*job, Status, error) {
	if tenant == "" {
		return nil, Status{}, fmt.Errorf("%w: empty tenant", sim.ErrInvalidSpec)
	}
	// Validation happens before any queue state is touched: a malformed
	// spec must never occupy a slot.
	cost, err := spec.GridSize()
	if err != nil {
		return nil, Status{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, Status{}, ErrClosed
	}
	c.evictLocked()
	tq := c.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		c.tenants[tenant] = tq
	}
	if len(tq.queue) >= c.opts.QueueDepth {
		return nil, Status{}, fmt.Errorf("%w: tenant %q has %d sweeps queued", ErrQueueFull, tenant, c.opts.QueueDepth)
	}
	c.seq++
	j := &job{
		id:        c.newID(),
		tenant:    tenant,
		seq:       c.seq,
		spec:      spec,
		cost:      cost,
		prog:      Progress{TotalShards: cost},
		state:     StateQueued,
		submitted: c.opts.Clock.Now(),
		landed:    make(chan struct{}),
		waited:    waited,
	}
	c.sweeps[j.id] = j
	tq.queue = append(tq.queue, j)
	c.queued++
	if !tq.active {
		tq.active = true
		c.active = append(c.active, tq)
	}
	st := c.statusLocked(j)
	c.dispatchLocked()
	return j, st, nil
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

// Report returns a done sweep's final report. ErrNotFound for unknown
// IDs, ErrNotTerminal while queued or running, and the sweep's terminal
// error for failed or cancelled sweeps; a cancelled sweep's satisfies
// errors.Is(err, ErrCancelled).
func (c *Coordinator) Report(id string) (*sim.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	j, ok := c.sweeps[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.outcome()
}

// Run submits spec as Submit does, waits on that sweep, returns what Report
// would and forgets it: it never takes a retention slot from a sweep still
// to be fetched. If ctx ends first, Run cancels the sweep, retained like any
// cancelled one, and returns ctx.Err(); a sweep landed by the time Run
// looks is returned even when ctx has ended too.
func (c *Coordinator) Run(ctx context.Context, tenant string, spec *sim.Spec) (*sim.Report, error) {
	j, _, err := c.submit(tenant, spec, true)
	if err != nil {
		return nil, err
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
		c.cancelLocked(j)
		return nil, ctx.Err()
	}
	c.dropLocked(j)
	return j.outcome()
}

// Cancel requests a sweep's cancellation: a queued sweep lands cancelled
// immediately and the round-robin runs again; a running sweep's context
// is cancelled and it lands cancelled once execution unwinds. Cancelling
// a terminal sweep reports ErrTerminal.
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
	c.cancelLocked(j)
	return c.statusLocked(j), nil
}

// cancelLocked cancels a queued or running sweep, as Cancel documents.
func (c *Coordinator) cancelLocked(j *job) {
	if j.state == StateRunning {
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
		return
	}
	tq := c.tenants[j.tenant]
	for i, q := range tq.queue {
		if q == j {
			tq.queue = append(tq.queue[:i], tq.queue[i+1:]...)
			break
		}
	}
	c.queued--
	if len(tq.queue) == 0 {
		c.deactivateLocked(tq)
	}
	c.finishLocked(j, tq, StateCancelled, errors.New("sweep: cancelled while queued"), c.opts.Clock.Now())
	c.dispatchLocked()
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
	s := Stats{
		Queued:   c.queued,
		Running:  c.running,
		Retained: len(c.done),
		Tenants:  map[string]TenantStats{},
	}
	for name, tq := range c.tenants {
		s.Tenants[name] = TenantStats{
			Queued:    len(tq.queue),
			Running:   tq.running,
			Done:      tq.done,
			Failed:    tq.failed,
			Cancelled: tq.canc,
		}
	}
	return s
}

// dispatchLocked runs the deficit round-robin over the active tenants:
// the front tenant is granted quantum shard-credits (once per visit) and
// its queued sweeps start in FIFO order while the deficit covers their
// cost; a tenant whose head sweep is too expensive rotates to the back
// keeping its deficit, so it accumulates credit across rounds instead of
// being starved by cheap competitors. An emptied queue forfeits its
// deficit — credit never outlives backlog. A capacity stall (MaxRunning
// reached) returns without rotating or re-granting, so the stalled
// tenant resumes exactly where it left off.
func (c *Coordinator) dispatchLocked() {
	for c.running < c.opts.MaxRunning && len(c.active) > 0 {
		tq := c.active[0]
		if !tq.charged {
			tq.deficit += quantum
			tq.charged = true
		}
		for len(tq.queue) > 0 && c.running < c.opts.MaxRunning && tq.queue[0].cost <= tq.deficit {
			j := tq.queue[0]
			tq.queue = tq.queue[1:]
			c.queued--
			tq.deficit -= j.cost
			c.startLocked(j, tq)
		}
		if len(tq.queue) == 0 {
			c.deactivateLocked(tq)
			continue
		}
		if c.running >= c.opts.MaxRunning {
			return
		}
		// Head too expensive for the current deficit: next visit grants
		// another quantum.
		tq.charged = false
		c.active = append(c.active[1:], tq)
	}
}

// deactivateLocked removes the tenant from the DRR rotation and resets
// its credit.
func (c *Coordinator) deactivateLocked(tq *tenantQueue) {
	tq.deficit = 0
	tq.charged = false
	tq.active = false
	for i, a := range c.active {
		if a == tq {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
}

// startLocked transitions a sweep to running and launches its run
// goroutine.
func (c *Coordinator) startLocked(j *job, tq *tenantQueue) {
	j.state = StateRunning
	j.started = c.opts.Clock.Now()
	ctx, cancel := context.WithCancel(c.baseCtx)
	j.cancel = cancel
	c.running++
	tq.running++
	c.wg.Add(1)
	go c.run(j, ctx)
}

// run executes one sweep to a terminal state. The shard-done hook feeds
// the job's progress counters under c.mu, which is safe because the hook
// fires only on the session's goroutines inside RunFunc, while run holds
// no lock; the final report is whatever RunFunc returned, untouched —
// byte-identity with a direct Session.Run is inherited, not re-established.
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
	tq := c.tenants[j.tenant]
	c.running--
	tq.running--
	switch {
	case err == nil:
		j.report = rep
		c.finishLocked(j, tq, StateDone, nil, c.opts.Clock.Now())
	case j.cancelRequested || errors.Is(err, context.Canceled):
		c.finishLocked(j, tq, StateCancelled, err, c.opts.Clock.Now())
	default:
		c.finishLocked(j, tq, StateFailed, err, c.opts.Clock.Now())
	}
	c.evictLocked()
	c.dispatchLocked()
	c.mu.Unlock()
}

// finishLocked lands a sweep in a terminal state, appends it to the
// retention list unless Run holds it, and wakes Run.
func (c *Coordinator) finishLocked(j *job, tq *tenantQueue, st State, err error, now time.Time) {
	j.state = st
	j.finished = now
	j.err = err
	switch st {
	case StateDone:
		tq.done++
	case StateFailed:
		tq.failed++
	case StateCancelled:
		tq.canc++
	}
	if !j.waited {
		c.done = append(c.done, j)
		tq.retained++
	}
	close(j.landed)
}

// evictLocked enforces retention over the terminal list: beyond
// maxRetained, or past the Retain TTL, the oldest-finished sweeps are
// forgotten. Only terminal sweeps are ever in the list, so a queued or
// running sweep is structurally unevictable. A tenant goes with its last
// retained sweep unless it still has work queued or running, so the tenant
// table is bounded by the same limits as the sweeps.
func (c *Coordinator) evictLocked() {
	now := c.opts.Clock.Now()
	for len(c.done) > 0 {
		j := c.done[0]
		if !j.state.Terminal() {
			panic("sweep: non-terminal sweep on the retention list")
		}
		if len(c.done) > maxRetained || now.Sub(j.finished) > c.opts.Retain {
			c.done = c.done[1:]
			c.tenants[j.tenant].retained--
			c.dropLocked(j)
			continue
		}
		break
	}
}

// dropLocked forgets a terminal sweep off the retention list, and its tenant
// if that has nothing retained, queued or running (or is gone already).
func (c *Coordinator) dropLocked(j *job) {
	delete(c.sweeps, j.id)
	if tq := c.tenants[j.tenant]; tq != nil && tq.retained == 0 && len(tq.queue) == 0 && tq.running == 0 {
		delete(c.tenants, j.tenant)
	}
}

// statusLocked snapshots a job. Caller holds c.mu.
func (c *Coordinator) statusLocked(j *job) Status {
	st := Status{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		SubmittedAt: j.submitted,
		Progress:    j.prog,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
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
