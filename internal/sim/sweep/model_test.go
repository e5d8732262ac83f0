package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
)

// The sweep state machine against a reference model. Random sequences of
// submit, cancel, run-finish (ok, error or cancelled), Advance and Close
// over three tenants drive a Coordinator on a virtual clock whose runs the
// test releases one at a time; after every step the coordinator must agree
// with the model on every sweep's state, the queued and running gauges,
// the tenant table and its counters, and which sweeps are still visible —
// and the next run to start must be the one deficit round-robin picks.

var errModelRun = errors.New("model: scripted run failure")

// mSweep is the model's record of one sweep.
type mSweep struct {
	id, tenant string
	seq, cost  int
	spec       *sim.Spec
	state      State
	finished   time.Time
	finish     chan error // the running stub's release, once started
}

func (s *mSweep) String() string {
	if s == nil {
		return "an unknown sweep"
	}
	return fmt.Sprintf("sweep %s (tenant %s, cost %d)", s.id, s.tenant, s.cost)
}

// mTenant is the model's record of one tenant.
type mTenant struct {
	queue              []*mSweep
	deficit            int
	charged            bool
	running, retained  int
	done, failed, canc int64
}

// model is the coordinator's contract, restated: DRR over FIFO tenant
// queues, MaxRunning, per-tenant QueueDepth, and retention by count and age.
type model struct {
	maxRunning, depth int
	retain            time.Duration
	now               time.Time
	tenants           map[string]*mTenant
	active            []string // the DRR rotation
	visible           map[string]*mSweep
	done              []*mSweep // the retention list, in finish order
	running, queued   int
	closed            bool

	// What the sequence exercised, so a run of the test cannot pass vacuously.
	countEvicted, ageEvicted, tenantsDropped, extraRounds int
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
// unless it has work in hand. Every coordinator call that can see a sweep
// evicts first, so the model evicts before every comparison.
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
		delete(m.visible, s.id)
		tq := m.tenants[s.tenant]
		if tq.retained--; tq.retained == 0 && len(tq.queue) == 0 && tq.running == 0 {
			delete(m.tenants, s.tenant)
			m.tenantsDropped++
		}
	}
}

// land moves s to a terminal state.
func (m *model) land(s *mSweep, st State) {
	tq := m.tenants[s.tenant]
	if s.state == StateRunning {
		m.running--
		tq.running--
	}
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
	tq.retained++
}

// deactivate takes a tenant whose queue emptied out of the rotation; its
// credit goes with it.
func (m *model) deactivate(name string) {
	tq := m.tenants[name]
	tq.deficit, tq.charged = 0, false
	for i, a := range m.active {
		if a == name {
			m.active = append(m.active[:i:i], m.active[i+1:]...)
			return
		}
	}
}

// dispatch starts what deficit round-robin starts while capacity allows:
// the tenant at the front of the rotation is granted a quantum once per
// visit and starts its head sweeps while its credit covers them; one whose
// head costs more than its credit goes to the back and keeps the credit; a
// capacity stall leaves the front tenant where it is, already charged.
func (m *model) dispatch() []*mSweep {
	var started []*mSweep
	for m.running < m.maxRunning && len(m.active) > 0 {
		name := m.active[0]
		tq := m.tenants[name]
		if !tq.charged {
			tq.deficit += quantum
			tq.charged = true
		}
		for len(tq.queue) > 0 && m.running < m.maxRunning && tq.queue[0].cost <= tq.deficit {
			s := tq.queue[0]
			tq.queue = tq.queue[1:]
			tq.deficit -= s.cost
			if s.cost > quantum {
				m.extraRounds++
			}
			s.state = StateRunning
			m.queued--
			m.running++
			tq.running++
			started = append(started, s)
		}
		switch {
		case len(tq.queue) == 0:
			m.deactivate(name)
		case m.running >= m.maxRunning:
			return started
		default:
			tq.charged = false
			m.active = append(m.active[1:], name)
		}
	}
	return started
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
	starts chan started
	ids    []string // every sweep ever submitted, in submission order
	byID   map[string]*mSweep
}

func newHarness(t *testing.T, seed int64, maxRunning, depth int) *harness {
	h := &harness{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		v:   clock.NewVirtual(),
		// Room for runs the model never started, so a stray start waits in
		// the buffer for the final check instead of blocking Close.
		starts: make(chan started, 64),
		byID:   map[string]*mSweep{},
	}
	h.m = &model{maxRunning: maxRunning, depth: depth, retain: time.Hour, now: h.v.Now(),
		tenants: map[string]*mTenant{}, visible: map[string]*mSweep{}}
	c, err := New(Options{
		QueueDepth: depth,
		MaxRunning: maxRunning,
		Retain:     h.m.retain,
		Clock:      h.v,
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
				return &sim.Report{Schema: sim.SchemaV1}, nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	return h
}

// expectStarts receives the runs the model says the scheduler starts, in
// order, and checks each is the sweep the model picked.
func (h *harness) expectStarts(want []*mSweep) {
	h.t.Helper()
	for _, s := range want {
		select {
		case got := <-h.starts:
			if got.spec != s.spec {
				var other *mSweep
				for _, o := range h.byID {
					if o.spec == got.spec {
						other = o
					}
				}
				h.t.Fatalf("scheduler started %s, want %s", other, s)
			}
			s.finish = got.finish
		case <-time.After(10 * time.Second):
			h.t.Fatalf("%s never started", s)
		}
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

// modelCosts are the grid sizes sweeps are drawn from: below, at and above
// one quantum, so some heads wait one or more rounds for credit.
var modelCosts = []int{1, 8, quantum, quantum + 1, 3 * quantum}

func (h *harness) submit() {
	tenant := string(rune('a' + h.rng.Intn(3)))
	cost := modelCosts[h.rng.Intn(len(modelCosts))]
	spec := specN(cost)
	st, err := h.c.Submit(tenant, spec)
	m := h.m
	m.evict()
	switch tq := m.tenants[tenant]; {
	case m.closed:
		if !errors.Is(err, ErrClosed) {
			h.t.Fatalf("submit after Close: %v, want ErrClosed", err)
		}
		return
	case tq != nil && len(tq.queue) >= m.depth:
		if !errors.Is(err, ErrQueueFull) {
			h.t.Fatalf("submit to tenant %s holding %d queued (depth %d): %v, want ErrQueueFull", tenant, m.depth, m.depth, err)
		}
		return
	case err != nil:
		h.t.Fatalf("submit: %v", err)
	}
	s := &mSweep{id: st.ID, tenant: tenant, seq: len(h.ids), cost: cost, spec: spec, state: StateQueued}
	h.ids = append(h.ids, s.id)
	h.byID[s.id] = s
	m.visible[s.id] = s
	tq := m.tenant(tenant)
	tq.queue = append(tq.queue, s)
	m.queued++
	if len(tq.queue) == 1 {
		m.active = append(m.active, tenant)
	}
	if st.State != StateQueued {
		h.t.Fatalf("submit answered state %s, want queued", st.State)
	}
	h.expectStarts(m.dispatch())
}

// finishOne releases a random running sweep with a random outcome.
func (h *harness) finishOne() {
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
	h.expectStarts(h.m.dispatch())
}

// cancel cancels a random sweep from the whole history: queued, running,
// terminal or long evicted.
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
	case s.state == StateQueued:
		tq := m.tenants[s.tenant]
		for i, q := range tq.queue {
			if q == s {
				tq.queue = append(tq.queue[:i:i], tq.queue[i+1:]...)
				break
			}
		}
		m.queued--
		if len(tq.queue) == 0 {
			m.deactivate(s.tenant)
		}
		m.land(s, StateCancelled)
		if st.State != StateCancelled {
			h.t.Fatalf("cancel of queued sweep %s answered %s, want cancelled", id, st.State)
		}
		h.expectStarts(m.dispatch())
	default: // running: its context ends and the run lands cancelled
		if st.State != StateRunning {
			h.t.Fatalf("cancel of running sweep %s answered %s, want running until it unwinds", id, st.State)
		}
		h.awaitLanded(id)
		m.land(s, StateCancelled)
		m.evict()
		h.expectStarts(m.dispatch())
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

// close closes the coordinator: every queued sweep lands cancelled, then
// every running one does as its context ends. Close returns only once they
// all have.
func (h *harness) close() {
	h.c.Close()
	m := h.m
	if m.closed {
		return
	}
	m.closed = true
	for _, id := range h.ids {
		if s := h.byID[id]; s.state == StateQueued {
			m.land(s, StateCancelled)
		}
	}
	for _, id := range h.ids {
		if s := h.byID[id]; s.state == StateRunning {
			m.land(s, StateCancelled)
		}
	}
	for _, tq := range m.tenants {
		tq.queue = nil
	}
	m.active, m.queued = nil, 0
}

// check holds the coordinator to the model. Before any other call has
// evicted, it asks Cancel and Get about a finished or forgotten sweep —
// an expired sweep must be gone to those too — then compares the gauges,
// the tenant table, the visible set and one sweep's report.
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
	if st.Running > m.maxRunning {
		fail("%d sweeps running, MaxRunning %d", st.Running, m.maxRunning)
	}
	if st.Queued != m.queued || st.Running != m.running || st.Retained != len(m.done) {
		fail("gauges queued/running/retained = %d/%d/%d, model %d/%d/%d",
			st.Queued, st.Running, st.Retained, m.queued, m.running, len(m.done))
	}
	if len(st.Tenants) != len(m.tenants) {
		fail("tenant table %v, model holds %d tenants", st.Tenants, len(m.tenants))
	}
	for name, tq := range m.tenants {
		want := TenantStats{Queued: len(tq.queue), Running: tq.running, Done: tq.done, Failed: tq.failed, Cancelled: tq.canc}
		if got, ok := st.Tenants[name]; !ok || got != want {
			fail("tenant %s = %+v (listed %v), model %+v", name, got, ok, want)
		}
		if got := st.Tenants[name].Queued; got > m.depth {
			fail("tenant %s holds %d queued, QueueDepth %d", name, got, m.depth)
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
			ok = err == nil && rep != nil
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

// TestModel runs the random sequences: each picks MaxRunning and
// QueueDepth, drives two thousand steps with a Close late among them, and
// checks no run started that the model did not start. Half the sequences
// age sweeps out; the other half keep the clock short of Retain so the
// retention list fills past maxRetained.
func TestModel(t *testing.T) {
	var covered model
	var queueFull, closedSubmits int
	for _, tc := range []struct {
		seed              int64
		maxRunning, depth int
		ages              bool
	}{
		{1, 1, 1, true}, {2, 2, 3, false}, {3, 3, 2, true},
		{4, 1, 4, false}, {5, 2, 2, true}, {6, 3, 1, false},
	} {
		t.Run(fmt.Sprintf("seed%d-run%d-depth%d-ages%v", tc.seed, tc.maxRunning, tc.depth, tc.ages), func(t *testing.T) {
			h := newHarness(t, tc.seed, tc.maxRunning, tc.depth)
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
					if len(h.ids) == before {
						if h.m.closed {
							closedSubmits++
						} else {
							queueFull++
						}
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
			t.Logf("%d steps, %d sweeps; evicted %d by count, %d by age; %d tenants dropped; %d starts after extra rounds",
				steps, len(h.ids), h.m.countEvicted, h.m.ageEvicted, h.m.tenantsDropped, h.m.extraRounds)
			covered.countEvicted += h.m.countEvicted
			covered.ageEvicted += h.m.ageEvicted
			covered.tenantsDropped += h.m.tenantsDropped
			covered.extraRounds += h.m.extraRounds
		})
	}
	for what, n := range map[string]int{
		"evictions past maxRetained": covered.countEvicted,
		"evictions past Retain":      covered.ageEvicted,
		"tenants dropped":            covered.tenantsDropped,
		"starts after extra rounds":  covered.extraRounds,
		"ErrQueueFull submits":       queueFull,
		"submits after Close":        closedSubmits,
	} {
		if n == 0 {
			t.Errorf("the sequences exercised no %s", what)
		}
	}
}
