package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
)

// The sweep state machine against a reference model. Random sequences of
// submit, cancel, run-finish (ok, error or cancelled), Advance and Close
// over three tenants drive a Coordinator on a virtual clock whose runs the
// test releases; after every step the coordinator must agree with the
// model on every sweep's state, the running and retained gauges, the
// tenant table and its counters, and which sweeps are still visible — and
// every admitted sweep's run must have started by the time Submit
// returned. Admission is the budget rule at a small MaxShards, so the
// sequences reach its edges: a grid over MaxShards is invalid, a tenant's
// running charges stay within its share, the largest sweep's charge, and
// running sweeps' charges plus uncollected reports stay within the budget
// of two shares at every step, a submit releasing the oldest uncollected
// reports to fit and refused only when running sweeps alone leave no room. A done sweep's report is handed
// over by the first Report and is ErrReportGone after: the model holds the
// coordinator's held counts and which reports are gone, and why, to that
// rule. Which units of the running sweeps compute is the session gate's
// concern, modelled by the sim package's TestGateMatchesDRR.

var errModelRun = errors.New("model: scripted run failure")

// mSweep is the model's record of one sweep.
type mSweep struct {
	id, tenant string
	seq        int
	spec       *sim.Spec
	shards     int // its grid
	entries    int // its report's, shards plus merged
	state      State
	finished   time.Time
	finish     chan error // the running stub's release
	// gone is why a done sweep's report is no longer held: "" while it is,
	// then goneCollected or goneReleased.
	gone string
}

func (s *mSweep) String() string {
	if s == nil {
		return "an unknown sweep"
	}
	return fmt.Sprintf("sweep %s (tenant %s)", s.id, s.tenant)
}

// mTenant is the model's record of one tenant.
type mTenant struct {
	running, charged, retained int
	done, failed, canc         int64
}

// modelMaxShards is the sequences' MaxShards: small, so a few sweeps reach
// a tenant's share and the budget. A share is the charge of the largest
// sweep, one seed over MaxShards shards, and the budget two shares.
const (
	modelMaxShards = 64
	modelShare     = 2*modelMaxShards + sweepCost
	modelBudget    = 2 * modelShare
)

// model is the coordinator's contract, restated: every admitted sweep runs
// at once, charged its report's entries and sweepCost; admission holds each
// tenant's running charges to a share and everything held to the budget,
// releasing uncollected reports oldest first to fit; retention goes by
// count and age; and a report is held until fetched once or released.
type model struct {
	retain  time.Duration
	now     time.Time
	tenants map[string]*mTenant
	visible map[string]*mSweep
	done    []*mSweep // the retention list, in finish order
	charged int       // the running sweeps' charges
	held    int       // the entries of the retention list's held reports
	running int
	closed  bool

	// What the sequence exercised, so a run of the test cannot pass vacuously.
	countEvicted, ageEvicted, tenantsDropped, collected, released, refetched int
	invalid, shareFull, budgetFull, fullSize                                 int
}

// charge is what s holds against the budget while running: its report's
// entries and sweepCost.
func (s *mSweep) charge() int { return s.entries + sweepCost }

// heldCost is what s's report counts against the budget while held.
func (s *mSweep) heldCost() int {
	if s.state != StateDone || s.gone != "" {
		return 0
	}
	return s.entries
}

// letGo drops s's report for why, reporting whether s still held one.
func (m *model) letGo(s *mSweep, why string) bool {
	if s.heldCost() == 0 {
		return false
	}
	m.held -= s.entries
	s.gone = why
	return true
}

// release lets go of held reports, oldest first, until need more entries
// fit the budget.
func (m *model) release(need int) {
	for _, old := range m.done {
		if m.charged+m.held+need <= modelBudget {
			return
		}
		if m.letGo(old, goneReleased) {
			m.released++
		}
	}
}

func (m *model) tenant(name string) *mTenant {
	tq := m.tenants[name]
	if tq == nil {
		tq = &mTenant{}
		m.tenants[name] = tq
	}
	return tq
}

// evict forgets the oldest-finished sweeps while more than maxRetained are
// held or the oldest is older than retain, and a tenant with its last one
// unless it has a sweep running. Every coordinator call that can see a
// sweep evicts first, so the model evicts before every comparison.
func (m *model) evict() {
	for len(m.done) > 0 {
		s := m.done[0]
		byCount, byAge := len(m.done) > maxRetained, m.now.Sub(s.finished) > m.retain
		if !byCount && !byAge {
			return
		}
		if byCount {
			m.countEvicted++
		} else {
			m.ageEvicted++
		}
		m.done = m.done[1:]
		m.held -= s.heldCost()
		delete(m.visible, s.id)
		tq := m.tenants[s.tenant]
		if tq.retained--; tq.retained == 0 && tq.running == 0 {
			delete(m.tenants, s.tenant)
			m.tenantsDropped++
		}
	}
}

// land moves a running s to a terminal state.
func (m *model) land(s *mSweep, st State) {
	tq := m.tenants[s.tenant]
	m.running--
	tq.running--
	tq.charged -= s.charge()
	m.charged -= s.charge()
	s.state, s.finished = st, m.now
	switch st {
	case StateDone:
		tq.done++
	case StateFailed:
		tq.failed++
	case StateCancelled:
		tq.canc++
	}
	m.done = append(m.done, s)
	m.held += s.heldCost() // no more than it was charged running
	tq.retained++
}

// heldReports counts the retention list's reports still held.
func (m *model) heldReports() (n int) {
	for _, s := range m.done {
		if s.heldCost() > 0 {
			n++
		}
	}
	return n
}

// started is one run the stub RunFunc began: its spec, and the channel the
// test releases it through (nil: done; errModelRun: failed;
// context.Canceled: cancelled).
type started struct {
	spec   *sim.Spec
	finish chan error
}

// harness is one sequence: the coordinator under test, its model, and the
// runs it has started.
type harness struct {
	t      *testing.T
	rng    *rand.Rand
	v      *clock.Virtual
	c      *Coordinator
	m      *model
	burst  int // how many running sweeps one finish step lands
	starts chan started
	ids    []string // every sweep ever submitted, in submission order
	byID   map[string]*mSweep
}

func newHarness(t *testing.T, seed int64, burst int) *harness {
	h := &harness{
		t:     t,
		rng:   rand.New(rand.NewSource(seed)),
		v:     clock.NewVirtual(),
		burst: burst,
		// Room for runs the model never started, so a stray start waits in
		// the buffer for the final check instead of blocking Close.
		starts: make(chan started, 64),
		byID:   map[string]*mSweep{},
	}
	h.m = &model{retain: time.Hour, now: h.v.Now(),
		tenants: map[string]*mTenant{}, visible: map[string]*mSweep{}}
	c, err := New(Options{
		MaxShards: modelMaxShards,
		Retain:    h.m.retain,
		Clock:     h.v,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			fin := make(chan error, 1)
			h.starts <- started{spec, fin}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case err := <-fin:
				if err != nil {
					return nil, err
				}
				n, err := spec.GridSize()
				return &sim.Report{Schema: sim.SchemaV1, Shards: make([]sim.Shard, n), Merged: make([]sim.Merged, n/max(len(spec.Seeds), 1))}, err
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	return h
}

// expectStart receives the run Submit started and checks it is s's.
func (h *harness) expectStart(s *mSweep) {
	h.t.Helper()
	select {
	case got := <-h.starts:
		if got.spec != s.spec {
			h.t.Fatalf("Submit of %s started another sweep's run", s)
		}
		s.finish = got.finish
	case <-time.After(10 * time.Second):
		h.t.Fatalf("%s never started", s)
	}
}

// awaitLanded yields until the run goroutine has landed id — the one wait
// on a goroutine the test does not own; it spins on Gosched, never sleeps.
func (h *harness) awaitLanded(id string) {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if st, ok := h.c.Get(id); !ok || st.State.Terminal() {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("sweep %s never landed", id)
		}
	}
}

// modelGrids are the sweeps drawn from: grids of one shard per seed up to
// a full MaxShards and one over it, and the largest sweep, one seed over
// MaxShards shards, whose charge is a whole share.
var modelGrids = []struct {
	shards  int
	oneSeed bool
}{{1, false}, {8, false}, {31, false}, {modelMaxShards, false}, {modelMaxShards + 1, false}, {modelMaxShards, true}}

func (h *harness) submit() {
	tenant := string(rune('a' + h.rng.Intn(3)))
	g := modelGrids[h.rng.Intn(len(modelGrids))]
	s := &mSweep{tenant: tenant, seq: len(h.ids), shards: g.shards, entries: g.shards + 1, spec: specN(g.shards), state: StateRunning}
	if g.oneSeed {
		s.entries, s.spec = 2*g.shards, oneSeed(g.shards)
	}
	st, err := h.c.Submit(tenant, s.spec)
	m := h.m
	m.evict()
	running := 0 // the tenant's running charges
	if tq := m.tenants[tenant]; tq != nil {
		running = tq.charged
	}
	switch {
	case s.shards > modelMaxShards:
		if !errors.Is(err, sim.ErrInvalidSpec) {
			h.t.Fatalf("submit of %d shards over MaxShards %d: %v, want ErrInvalidSpec", s.shards, modelMaxShards, err)
		}
		m.invalid++
		return
	case m.closed:
		if !errors.Is(err, ErrClosed) {
			h.t.Fatalf("submit after Close: %v, want ErrClosed", err)
		}
		return
	case running+s.charge() > modelShare:
		if !errors.Is(err, ErrQueueFull) {
			h.t.Fatalf("submit charging %d to tenant %s running %d: %v, want ErrQueueFull", s.charge(), tenant, running, err)
		}
		m.shareFull++
		return
	case m.charged+s.charge() > modelBudget:
		if !errors.Is(err, ErrQueueFull) {
			h.t.Fatalf("submit charging %d beside %d running: %v, want ErrQueueFull", s.charge(), m.charged, err)
		}
		m.budgetFull++
		return
	case err != nil:
		h.t.Fatalf("submit: %v", err)
	}
	if s.charge() == modelShare {
		m.fullSize++
	}
	m.release(s.charge())
	s.id = st.ID
	h.ids = append(h.ids, s.id)
	h.byID[s.id] = s
	m.visible[s.id] = s
	tq := m.tenant(tenant)
	tq.running++
	tq.charged += s.charge()
	m.charged += s.charge()
	m.running++
	if st.State != StateRunning || st.StartedAt == nil || !st.StartedAt.Equal(st.SubmittedAt) || st.Progress.TotalShards != s.shards {
		h.t.Fatalf("submit answered %+v, want running since submission with %d shards", st, s.shards)
	}
	h.expectStart(s)
}

// finishOne releases up to burst random running sweeps, one after another,
// each with a random outcome.
func (h *harness) finishOne() {
	for range h.burst {
		var running []*mSweep
		for _, id := range h.ids {
			if s := h.byID[id]; s.state == StateRunning {
				running = append(running, s)
			}
		}
		if len(running) == 0 {
			return
		}
		s := running[h.rng.Intn(len(running))]
		outcome, st := []error{nil, errModelRun, context.Canceled}[h.rng.Intn(3)], StateDone
		switch outcome {
		case errModelRun:
			st = StateFailed
		case context.Canceled:
			st = StateCancelled
		}
		s.finish <- outcome
		h.awaitLanded(s.id)
		h.m.land(s, st)
		h.m.evict()
	}
}

// cancel cancels a random sweep from the whole history: running, terminal
// or long evicted.
func (h *harness) cancel() {
	if len(h.ids) == 0 {
		return
	}
	id := h.ids[h.rng.Intn(len(h.ids))]
	st, err := h.c.Cancel(id)
	m := h.m
	m.evict()
	s := m.visible[id]
	switch {
	case s == nil:
		if !errors.Is(err, ErrNotFound) {
			h.t.Fatalf("cancel of evicted sweep %s: (%+v, %v), want ErrNotFound", id, st, err)
		}
	case s.state.Terminal():
		if !errors.Is(err, ErrTerminal) || st.State != s.state {
			h.t.Fatalf("cancel of %s sweep %s: (%s, %v), want ErrTerminal", s.state, id, st.State, err)
		}
	case err != nil:
		h.t.Fatalf("cancel of %s sweep %s: %v", s.state, id, err)
	default: // its context ends and the run lands cancelled
		if st.State != StateRunning {
			h.t.Fatalf("cancel of running sweep %s answered %s, want running until it unwinds", id, st.State)
		}
		h.awaitLanded(id)
		m.land(s, StateCancelled)
		m.evict()
	}
}

// advance moves both clocks: by a nanosecond or a minute, or — when the
// sequence ages sweeps out — by half of Retain or all of it.
func (h *harness) advance(ages bool) {
	steps := []time.Duration{time.Nanosecond, time.Minute, h.m.retain / 2, h.m.retain}
	if !ages {
		steps = steps[:2]
	}
	d := steps[h.rng.Intn(len(steps))]
	h.v.Advance(d)
	h.m.now = h.m.now.Add(d)
}

// close closes the coordinator: every running sweep lands cancelled as its
// context ends, and Close returns only once they all have.
func (h *harness) close() {
	h.c.Close()
	m := h.m
	if m.closed {
		return
	}
	m.closed = true
	for _, id := range h.ids {
		if s := h.byID[id]; s.state == StateRunning {
			m.land(s, StateCancelled)
		}
	}
}

// check holds the coordinator to the model. Before any other call has
// evicted, it asks Cancel and Get about a finished or forgotten sweep —
// an expired sweep must be gone to those too — then compares the gauges,
// the held entries, the tenant table, the visible set and one sweep's
// report.
func (h *harness) check(step int, what string) {
	h.t.Helper()
	m := h.m
	m.evict()
	fail := func(format string, args ...any) {
		h.t.Helper()
		h.t.Fatalf("step %d (%s): %s", step, what, fmt.Sprintf(format, args...))
	}
	if len(h.ids) > 0 {
		id := h.ids[h.rng.Intn(len(h.ids))]
		if s := m.visible[id]; s == nil || s.state.Terminal() {
			wantErr := ErrTerminal
			if s == nil {
				wantErr = ErrNotFound
			}
			probes := []func(){
				func() {
					if _, err := h.c.Cancel(id); !errors.Is(err, wantErr) {
						fail("Cancel of %s sweep %s: %v, want %v", stateOf(s), id, err, wantErr)
					}
				},
				func() {
					if _, ok := h.c.Get(id); ok != (s != nil) {
						fail("Get of %s sweep %s: visible = %v", stateOf(s), id, ok)
					}
				},
			}
			// Either may be first, so neither's eviction hides the other's.
			first := h.rng.Intn(2)
			probes[first]()
			probes[1-first]()
		}
	}

	st := h.c.Stats()
	if st.Running != m.running || st.Retained != len(m.done) {
		fail("gauges running/retained = %d/%d, model %d/%d", st.Running, st.Retained, m.running, len(m.done))
	}
	if st.Budget != modelBudget || st.HeldRunning != m.charged || st.HeldUncollected != m.held || m.charged+m.held > st.Budget {
		fail("%d running and %d uncollected entries held of %d, model %d and %d in %d reports", st.HeldRunning, st.HeldUncollected, st.Budget, m.charged, m.held, m.heldReports())
	}
	if len(st.Tenants) != len(m.tenants) {
		fail("tenant table %v, model holds %d tenants", st.Tenants, len(m.tenants))
	}
	for name, tq := range m.tenants {
		want := TenantStats{Running: tq.running, HeldRunning: tq.charged, Done: tq.done, Failed: tq.failed, Cancelled: tq.canc}
		if got, ok := st.Tenants[name]; !ok || got != want {
			fail("tenant %s = %+v (listed %v), model %+v", name, got, ok, want)
		}
		if tq.charged > modelShare {
			fail("tenant %s runs %d entries, its share %d", name, tq.charged, modelShare)
		}
	}

	list := h.c.List("")
	if len(list) != len(m.visible) {
		fail("%d sweeps visible, model %d", len(list), len(m.visible))
	}
	for i, got := range list {
		s := m.visible[got.ID]
		if s == nil || got.State != s.state || got.Tenant != s.tenant {
			fail("listed %s %s (tenant %s), model %s", got.ID, got.State, got.Tenant, stateOf(s))
		}
		if i > 0 && h.byID[list[i-1].ID].seq <= s.seq {
			fail("listing is not newest-first at %s", got.ID)
		}
	}

	if len(h.ids) > 0 {
		id := h.ids[h.rng.Intn(len(h.ids))]
		s := m.visible[id]
		if g, ok := h.c.Get(id); ok != (s != nil) || ok && g.State != s.state {
			fail("Get(%s) = (%s, %v), model %s", id, g.State, ok, stateOf(s))
		}
		rep, err := h.c.Report(id)
		var ok bool
		switch stateOf(s) {
		case "evicted":
			ok = errors.Is(err, ErrNotFound)
		case StateDone:
			if s.gone == "" {
				ok = err == nil && heldShards(rep) == s.entries
				m.letGo(s, goneCollected)
				m.collected++
			} else {
				ok = errors.Is(err, ErrReportGone) && strings.Contains(err.Error(), s.gone)
				m.refetched++
			}
		case StateFailed:
			ok = errors.Is(err, errModelRun)
		case StateCancelled:
			ok = err != nil && !errors.Is(err, ErrNotTerminal)
		default:
			ok = errors.Is(err, ErrNotTerminal)
		}
		if !ok {
			fail("Report(%s) = (%v, %v), model %s", id, rep, err, stateOf(s))
		}
	}
}

func stateOf(s *mSweep) State {
	if s == nil {
		return "evicted"
	}
	return s.state
}

// TestModel runs the random sequences: each picks how many running sweeps
// a finish step lands (run), drives two thousand steps with a Close late
// among them, and checks no run started that the model did not start. Half
// the sequences age sweeps out; the other half keep the clock short of
// Retain so the retention list fills past maxRetained.
func TestModel(t *testing.T) {
	var covered model
	var closedSubmits int
	for _, tc := range []struct {
		seed  int64
		burst int
		ages  bool
	}{
		{1, 1, true}, {2, 2, false}, {3, 3, true},
		{4, 1, false}, {5, 2, true}, {6, 3, false},
	} {
		t.Run(fmt.Sprintf("seed%d-run%d-ages%v", tc.seed, tc.burst, tc.ages), func(t *testing.T) {
			h := newHarness(t, tc.seed, tc.burst)
			defer h.c.Close()
			const steps = 2000
			// Close comes once, late, and a few hundred steps run against
			// the closed coordinator.
			closeAt := steps - 300 + h.rng.Intn(200)
			for step := 0; step < steps; step++ {
				var what string
				switch r := h.rng.Intn(1000); {
				case step == closeAt:
					what = "close"
					h.close()
				case r < 450:
					what = "submit"
					before := len(h.ids)
					h.submit()
					if len(h.ids) == before && h.m.closed {
						closedSubmits++
					}
				case r < 750:
					what = "finish"
					h.finishOne()
				case r < 880:
					what = "cancel"
					h.cancel()
				default:
					what = "advance"
					h.advance(tc.ages)
				}
				h.check(step, what)
			}
			if n := len(h.starts); n != 0 {
				t.Fatalf("%d runs started that the model never started", n)
			}
			t.Logf("%d steps, %d sweeps (%d full-size); refused: %d invalid, %d past a share, %d past the budget; evicted %d by count, %d by age; %d tenants dropped; reports: %d handed over, %d released, %d gone when fetched",
				steps, len(h.ids), h.m.fullSize, h.m.invalid, h.m.shareFull, h.m.budgetFull, h.m.countEvicted, h.m.ageEvicted, h.m.tenantsDropped, h.m.collected, h.m.released, h.m.refetched)
			covered.countEvicted += h.m.countEvicted
			covered.ageEvicted += h.m.ageEvicted
			covered.tenantsDropped += h.m.tenantsDropped
			covered.collected += h.m.collected
			covered.released += h.m.released
			covered.refetched += h.m.refetched
			covered.invalid += h.m.invalid
			covered.shareFull += h.m.shareFull
			covered.budgetFull += h.m.budgetFull
			covered.fullSize += h.m.fullSize
		})
	}
	for what, n := range map[string]int{
		"evictions past maxRetained": covered.countEvicted,
		"evictions past Retain":      covered.ageEvicted,
		"tenants dropped":            covered.tenantsDropped,
		"reports handed over":        covered.collected,
		"reports released to admit":  covered.released,
		"fetches of a gone report":   covered.refetched,
		"grids over MaxShards":       covered.invalid,
		"submits past a full share":  covered.shareFull,
		"submits past a full budget": covered.budgetFull,
		"sweeps of a whole share":    covered.fullSize,
		"submits after Close":        closedSubmits,
	} {
		if n == 0 {
			t.Errorf("the sequences exercised no %s", what)
		}
	}
}
