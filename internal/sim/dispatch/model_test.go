package dispatch_test

// The dispatcher's failure policy against a reference model. Units go one
// at a time through a Dispatcher over scripted backends on virtual time and
// through the model; a script answers every backend call and probe, and the
// two must agree on every call (its backend, its members, the instant it
// began), each member's outcome and Attempts, the Stats and the Healthy
// set. The model reads one thing from the run instead of predicting it: the
// full-jitter backoff before a retry, which it checks is under the cap.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

// The policy as the model states it: its own copy of the dispatcher's
// constants, so that changing one is a change the model notices.
const (
	mAttempts      = 3                      // calls per member
	mBackoffCap    = 100 * time.Millisecond // retry k waits under mBackoffCap << (k-1)
	mFailThreshold = 3                      // consecutive blamed calls that kill a backend
	mReviveAfter   = 15 * time.Second       // a dead backend's cooldown before a probe
	mLatSamples    = 64                     // the latency window
)

// mDeadline bounds a call of n testSpec members: 30 s + 1 µs per instruction.
func mDeadline(n int) time.Duration { return 30*time.Second + time.Duration(n)*5*time.Millisecond }

// answer scripts one backend call: per member, o answers it, x fails it (a
// worker's error record), i rejects it as invalid — one letter may stand
// for all, r among them (the call is refused) — delay after the call
// began; or h, it hangs to its deadline, or c, to the unit's cancellation.
type answer struct {
	letters string
	delay   time.Duration
}

func (a answer) of(k int) byte {
	if len(a.letters) == 1 {
		return a.letters[0]
	}
	return a.letters[k]
}

// mCall is one backend call of an attempt.
type mCall struct {
	b           int
	hedge, lost bool // lost: cancelled, the other call having completed every member
	a           answer
	end         time.Time // when it answers, or its deadline when it hangs
}

// model is the policy restated for units sent one at a time, when every
// pick finds the backends idle and so takes the first live one in order.
type model struct {
	hedge                bool
	now                  time.Time
	fails                []int
	deadSince            []time.Time
	lat                  []time.Duration // the latency window, oldest first
	delay                time.Duration   // the hedge delay last armed
	hedges, wins, probes int
	held                 []int     // backends probed this unit; their verdicts land at its end
	lastDead             time.Time // the latest death or probe, where a cooldown starts
}

func (m *model) healthy() []string {
	names := []string{}
	for i, f := range m.fails {
		if f < mFailThreshold {
			names = append(names, string(rune('a'+i)))
		}
	}
	return names
}

// pick probes every dead backend whose cooldown has run, restarting the
// cooldown, and returns the first live backend other than avoid, or -1.
func (m *model) pick(avoid int) int {
	best := -1
	for i, f := range m.fails {
		if f >= mFailThreshold && m.now.Sub(m.deadSince[i]) >= mReviveAfter {
			m.deadSince[i], m.lastDead = m.now, m.now
			m.probes++
			m.held = append(m.held, i)
		}
		if best < 0 && i != avoid && f < mFailThreshold {
			best = i
		}
	}
	return best
}

// hedgeDelay is twice the p95 of the latency window; false with hedging
// off, before a first sample, or when the p95 is zero.
func (m *model) hedgeDelay() (time.Duration, bool) {
	if !m.hedge || len(m.lat) == 0 {
		return 0, false
	}
	s := slices.Clone(m.lat)
	slices.Sort(s)
	d := 2 * s[len(s)*95/100]
	return d, d > 0
}

// race plays an attempt's calls, begun together at start, to the
// dispatcher's verdict. They answer in time order, each settling its
// backend once: a full answer revives it and is a latency sample; a failure
// other than invalid members or the unit's cancellation is blamed, and the
// threshold'th blame in a row kills it. The first answer that leaves no
// member failed wins, and the call still running is cancelled, unblamed.
// It returns the n members' merged letters and the backend that answered
// last, which a retry avoids.
func (m *model) race(start time.Time, n int, cs []*mCall) ([]byte, int) {
	for _, c := range cs {
		c.end = start.Add(c.a.delay)
		if c.a.letters == "h" {
			c.end = start.Add(mDeadline(n))
		}
	}
	slices.SortFunc(cs, func(x, y *mCall) int { return x.end.Compare(y.end) })
	merged := bytes.Repeat([]byte{'-'}, n)
	for i, c := range cs {
		m.now = c.end
		ok, blame, failed := true, false, false
		for k := range merged {
			l := c.a.of(k)
			ok, blame = ok && l == 'o', blame || strings.IndexByte("xrh", l) >= 0
			if merged[k] != 'o' {
				merged[k] = l
			}
			failed = failed || merged[k] != 'o'
		}
		switch {
		case ok:
			m.fails[c.b], m.deadSince[c.b] = 0, time.Time{}
			if m.lat = append(m.lat, c.end.Sub(start)); len(m.lat) > mLatSamples {
				m.lat = m.lat[1:]
			}
		case blame:
			if m.fails[c.b]++; m.fails[c.b] >= mFailThreshold {
				m.deadSince[c.b], m.lastDead = m.now, m.now
			}
		}
		if failed && i+1 < len(cs) {
			continue
		}
		if !failed && c.hedge {
			m.wins++
		}
		for _, loser := range cs[i+1:] {
			loser.lost = true
		}
		return merged, c.b
	}
	panic("an attempt without a call")
}

// rig is what the scripted backends share: the dispatcher's clock, and the
// hand-off of every call and probe to whoever answers them.
type rig struct {
	*clock.Virtual
	calls     chan *call
	probes    chan *call   // buffered: a unit's probes wait here until it ends, at most one per dead backend per cooldown
	cur, peak atomic.Int64 // backend calls in flight, and the most at once

	mu      sync.Mutex
	settled map[context.Context]chan struct{}
}

func newRig() *rig {
	return &rig{Virtual: onVirtualTime().Clock.(*clock.Virtual), calls: make(chan *call),
		probes: make(chan *call, 16), settled: map[context.Context]chan struct{}{}}
}

// WithTimeout is the virtual clock's, plus an event: a backend call and a
// probe release their deadline last, once the dispatcher has settled their
// verdict, and the context's settled channel closes then.
func (r *rig) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c, cancel := r.Virtual.WithTimeout(ctx, d)
	done := make(chan struct{})
	r.mu.Lock()
	r.settled[c] = done
	r.mu.Unlock()
	return c, sync.OnceFunc(func() { cancel(); close(done) })
}

func (r *rig) settledOf(ctx context.Context) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	done := r.settled[ctx]
	delete(r.settled, ctx)
	return done
}

// backends returns n scripted backends, named a, b, c, ...
func (r *rig) backends(n int) []dispatch.Backend {
	bs := make([]dispatch.Backend, n)
	for i := range bs {
		bs[i] = &scripted{r: r, i: i}
	}
	return bs
}

// call is a backend call or a probe waiting on its answer (a probe's is +
// or -), or, with b < 0, the end of a unit the driver sent; armed closes
// once a call waits on the instant its answer is due.
type call struct {
	b       int
	specs   []sim.ShardSpec
	at      time.Time
	ctx     context.Context
	settled <-chan struct{}
	answer  chan answer
	armed   chan struct{}
	out     []sim.Outcome
	err     error
}

// scripted is the one fake Backend: it hands each call and probe to the rig
// and does what the answer says. A probe waits on its verdict alone: the
// driver lands every probe at the end of the unit that launched it, so no
// pick inside the unit races a revival.
type scripted struct {
	r *rig
	i int
}

func (s *scripted) Name() string { return string(rune('a' + s.i)) }

func (s *scripted) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	r := s.r
	for n, p := r.cur.Add(1), r.peak.Load(); n > p && !r.peak.CompareAndSwap(p, n); p = r.peak.Load() {
	}
	defer r.cur.Add(-1)
	c := &call{b: s.i, specs: specs, at: r.Now(), ctx: ctx, settled: r.settledOf(ctx),
		answer: make(chan answer, 1), armed: make(chan struct{})}
	r.calls <- c
	a := <-c.answer
	due := ctx
	if a.letters != "h" && a.letters != "c" {
		var cancel context.CancelFunc
		due, cancel = r.Virtual.WithTimeout(ctx, a.delay)
		defer cancel()
	}
	close(c.armed)
	if <-due.Done(); ctx.Err() != nil {
		return nil, ctx.Err()
	}
	out := make([]sim.Outcome, len(specs))
	for k, spec := range specs {
		switch l := a.of(k); l {
		case 'o':
			out[k].Shard = sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}
		case 'i':
			out[k].Err = fmt.Errorf("%w: scripted rejection", sim.ErrInvalidSpec)
		default:
			out[k].Err = fmt.Errorf("scripted failure %c", l)
		}
	}
	return out, nil
}

func (s *scripted) Probe(ctx context.Context) error {
	c := &call{b: s.i, settled: s.r.settledOf(ctx), answer: make(chan answer, 1)}
	if s.r.probes <- c; (<-c.answer).letters != "+" {
		return errors.New("still down")
	}
	return nil
}

// driver steps units one at a time through a dispatcher over a rig and
// through the model, answering each call and probe from its script.
type driver struct {
	t       *testing.T
	r       *rig
	d       *dispatch.Dispatcher
	m       *model
	units   int
	seed    uint64   // the last spec seed sent
	calls   []int    // the calls each backend saw
	want    []string // the last unit's outcomes, then Attempts: o done, i invalid, f out of attempts, d all dead, c cancelled
	draw    func(cs []*mCall, n int)
	verdict func(b int) string
}

func newDriver(t *testing.T, n int, hedge bool) *driver {
	r := newRig()
	d, err := dispatch.New(r.backends(n), dispatch.Options{MaxInFlight: 1, Hedge: hedge, Clock: r})
	if err != nil {
		t.Fatal(err)
	}
	m := &model{hedge: hedge, now: r.Now(), fails: make([]int, n), deadSince: make([]time.Time, n)}
	return &driver{t: t, r: r, d: d, m: m, calls: make([]int, n)}
}

// unit sends one unit of n members and steps it through the model: each
// attempt must pick its backends at the instant the model says and send
// them the members still pending, and the clock moves only to the instants
// the calls answer.
func (h *driver) unit(n int) {
	t, m := h.t, h.m
	h.units++
	specs, pending := make([]sim.ShardSpec, n), make([]int, n)
	for k := range specs {
		h.seed++
		specs[k], pending[k] = testSpec(h.seed), k
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		out, err := h.d.RunShards(ctx, specs)
		h.r.calls <- &call{b: -1, out: out, err: err}
	}()
	var end *call
	state, tries := bytes.Repeat([]byte{'f'}, n), make([]int, n)
	for a, avoid := 0, -1; len(pending) > 0 && a < mAttempts; a++ {
		// The pick ran after the backoff and before the hedge timer, which
		// Auto fires as it is armed; with no live backend, the unit ended.
		first, at := <-h.r.calls, h.r.Now()
		delay, armed := m.hedgeDelay()
		if first.b >= 0 {
			at = first.at
			if armed {
				at = at.Add(-delay)
			}
		}
		if wait := at.Sub(m.now); a == 0 && wait != 0 || a > 0 && (wait < 0 || wait >= mBackoffCap<<(a-1)) {
			t.Fatalf("unit %d attempt %d: picked %v after the last answer", h.units, a, wait)
		}
		m.now = at
		p := m.pick(avoid)
		if p < 0 {
			p = m.pick(-1)
		}
		merged := bytes.Repeat([]byte{'d'}, len(pending))
		switch {
		case (p < 0) != (first.b < 0):
			t.Fatalf("unit %d attempt %d: a call on backend %d (-1: the unit ended), the model's pick %d", h.units, a, first.b, p)
		case p < 0:
			end = first
		default:
			send := make([]sim.ShardSpec, len(pending))
			for j, k := range pending {
				send[j] = specs[k]
			}
			merged, avoid = h.attempt(first, p, armed, delay, send, cancel)
		}
		var retry []int
		for j, k := range pending {
			if tries[k]++; strings.IndexByte("oidc", merged[j]) >= 0 {
				state[k] = merged[j]
			} else {
				retry = append(retry, k)
			}
		}
		pending = retry
	}
	h.want = make([]string, n)
	for k := range h.want {
		h.want[k] = fmt.Sprintf("%c%d", state[k], tries[k])
	}
	if end == nil {
		end = <-h.r.calls
	}
	if end.b >= 0 {
		t.Fatalf("unit %d: a call on backend %d the model does not expect", h.units, end.b)
	}
	h.check(specs, end)
}

// attempt steps one attempt whose first call has begun: the model hedges
// it or not, every call must carry send and begin with the first, and the
// clock moves to each answer in turn — to 1 ns before a hung call's
// deadline, where it must still be live, then to the deadline.
func (h *driver) attempt(first *call, p int, armed bool, delay time.Duration, send []sim.ShardSpec, cancel func()) ([]byte, int) {
	t, m, start := h.t, h.m, first.at
	cs := []*mCall{{b: p}}
	if armed {
		m.delay, m.now = delay, start
		if hb := m.pick(p); hb >= 0 {
			m.hedges++
			cs = append(cs, &mCall{b: hb, hedge: true})
		}
	}
	got := map[int]*call{first.b: first}
	for len(got) < len(cs) {
		c := <-h.r.calls
		got[c.b] = c
	}
	for _, c := range cs {
		gc := got[c.b]
		if gc == nil || !gc.at.Equal(start) || !slices.EqualFunc(gc.specs, send, func(x, y sim.ShardSpec) bool { return x.Seed == y.Seed }) {
			t.Fatalf("unit %d: calls %+v; want %d members on backend %d at %v", h.units, got, len(send), c.b, start)
		}
		h.calls[c.b]++
	}
	h.draw(cs, len(send))
	for _, c := range cs {
		got[c.b].answer <- c.a
		<-got[c.b].armed
	}
	merged, last := m.race(start, len(send), cs)
	for _, c := range cs {
		gc := got[c.b]
		switch {
		case c.lost:
		case c.a.letters == "c":
			cancel()
		case c.a.letters == "h":
			h.r.Advance(c.end.Add(-time.Nanosecond).Sub(h.r.Now()))
			if err := gc.ctx.Err(); err != nil {
				t.Fatalf("unit %d: a hung call of %d members ended (%v) 1 ns before %v", h.units, len(send), err, mDeadline(len(send)))
			}
			fallthrough
		default:
			if h.r.Advance(c.end.Sub(h.r.Now())); c.a.letters == "h" && !errors.Is(gc.ctx.Err(), context.DeadlineExceeded) {
				t.Fatalf("unit %d: a hung call at its deadline: %v", h.units, gc.ctx.Err())
			}
		}
		<-gc.settled
	}
	return merged, last
}

// check lands the unit's probes, then compares the run with the model.
func (h *driver) check(specs []sim.ShardSpec, end *call) {
	t, m := h.t, h.m
	if st := h.d.Stats(); st.Probes != int64(m.probes) {
		t.Fatalf("unit %d: %d probes, want %d", h.units, st.Probes, m.probes)
	}
	verdicts := map[int][]string{}
	for _, b := range m.held {
		v := h.verdict(b)
		if verdicts[b] = append(verdicts[b], v); v == "+" {
			m.fails[b], m.deadSince[b] = 0, time.Time{}
		}
	}
	for range m.held {
		p := <-h.r.probes
		p.answer <- answer{letters: verdicts[p.b][0]} // which probe of a backend gets which verdict is moot
		verdicts[p.b] = verdicts[p.b][1:]
		<-p.settled
	}
	m.held = nil
	want := dispatch.Stats{Hedges: int64(m.hedges), HedgeWins: int64(m.wins), Probes: int64(m.probes), Healthy: m.healthy()}
	if st := h.d.Stats(); !reflect.DeepEqual(st, want) || !h.r.Now().Equal(m.now) {
		t.Fatalf("unit %d: %+v at %v, want %+v at %v", h.units, st, h.r.Now(), want, m.now)
	}
	if h.want[0][0] == 'c' {
		if !errors.Is(end.err, context.Canceled) {
			t.Fatalf("cancelled unit %d: err = %v, want context.Canceled", h.units, end.err)
		}
		return
	}
	if end.err != nil || len(end.out) != len(specs) {
		t.Fatalf("unit %d: %d outcomes, err %v; want one per member", h.units, len(end.out), end.err)
	}
	for k, o := range end.out {
		if got := fmt.Sprintf("%c%d", classify(o, specs[k]), o.Attempts); got != h.want[k] {
			t.Fatalf("unit %d member %d: %s (%v), want %s", h.units, k, got, o.Err, h.want[k])
		}
	}
}

// classify names an outcome as the model does.
func classify(o sim.Outcome, spec sim.ShardSpec) byte {
	switch {
	case o.Err == nil && o.Shard.Seed == spec.Seed && o.Shard.Insts == spec.Insts:
		return 'o'
	case o.Err == nil:
	case errors.Is(o.Err, sim.ErrInvalidSpec):
		return 'i'
	case strings.Contains(o.Err.Error(), "backends dead"):
		return 'd'
	case strings.Contains(o.Err.Error(), fmt.Sprintf("after %d attempts", mAttempts)):
		return 'f'
	}
	return '?'
}

func (h *driver) idle(d time.Duration) {
	if d < 0 {
		h.t.Fatalf("an idle of %v", d)
	}
	h.r.Advance(d)
	h.m.now = h.m.now.Add(d)
}

// String is the model's state after the last unit, as a row pins it.
func (h *driver) String() string {
	m := h.m
	return fmt.Sprintf("calls %v healthy %v hedges %d/%d probes %d delay %v: %s",
		h.calls, m.healthy(), m.hedges, m.wins, m.probes, m.delay, strings.Join(h.want, " "))
}

// delays are the seeded answers' delays: distinct, so that the two calls
// of a race never answer at one instant.
var delays = []time.Duration{time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond, 64 * time.Millisecond}

// seededDraw scripts an attempt's calls at random. A race gets one call
// that answers every member, at a delay the other does not share: then the
// verdict is the same whichever answer the dispatcher reads first. With
// hedging on, no call may kill the second-last live backend, so an armed
// attempt always has a backend to hedge on, whose call shows the driver
// that the hedge pick has run.
func seededDraw(rng *rand.Rand, m *model, cs []*mCall, n int) {
	for _, c := range cs {
		c.a = answer{"o", delays[rng.Intn(len(delays))]}
		switch p := rng.Intn(20); {
		case p < 3:
			l := make([]byte, n)
			for k := range l {
				l[k] = "oxi"[rng.Intn(3)]
			}
			c.a.letters = string(l)
		case p < 9:
			c.a.letters = []string{"x", "x", "i", "r", "r", "h"}[p-3]
		}
		if m.hedge && m.fails[c.b] == mFailThreshold-1 && len(m.healthy()) == 2 && strings.ContainsAny(c.a.letters, "xrh") {
			c.a.letters = "i"
		}
	}
	if len(cs) == 2 {
		w, o, i := cs[0], cs[1], rng.Intn(len(delays))
		if rng.Intn(2) == 0 {
			w, o = o, w
		}
		w.a = answer{"o", delays[i]}
		o.a.delay = delays[(i+1+rng.Intn(len(delays)-1))%len(delays)]
	}
}

// inFlight fails the test if more backend calls were ever in flight at once
// than the driver's MaxInFlight 1 allows: twice that when hedged.
func (h *driver) inFlight() {
	limit := int64(1)
	if h.m.hedge {
		limit = 2
	}
	if p := h.r.peak.Load(); p > limit {
		h.t.Errorf("%d backend calls in flight at once, over MaxInFlight 1 (twice that, hedged)", p)
	}
}

// TestDispatcherMatchesModel runs 500 seeded units, one at a time, through
// the dispatcher and the model, with hedging off and on, over two or three
// backends.
func TestDispatcherMatchesModel(t *testing.T) {
	seen := map[string]int{} // what the seeds exercised, so the test cannot pass vacuously
	for _, hedge := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("hedge=%v/seed=%d", hedge, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newDriver(t, 2+int(seed)%2, hedge)
				h.draw = func(cs []*mCall, n int) { seededDraw(rng, h.m, cs, n) }
				h.verdict = func(int) string { return []string{"+", "-"}[rng.Intn(2)] }
				for range 500 {
					if rng.Intn(8) == 0 {
						h.idle(time.Duration(rng.Int63n(int64(20 * time.Second))))
					}
					h.unit(1 + rng.Intn(4))
					for _, o := range h.want {
						seen[o[:1]]++
					}
				}
				h.inFlight()
				seen["hedge win"] += h.m.wins
				seen["probe"] += h.m.probes
			})
		}
	}
	for _, what := range []string{"o", "i", "f", "d", "hedge win", "probe"} {
		if seen[what] == 0 {
			t.Errorf("no seed exercised %q: %v", what, seen)
		}
	}
}

// TestMaxInFlightIsDispatcherWide is the model's concurrent leg: three runs
// at once, over and over, through one dispatcher; it checks only their
// outcomes and that MaxInFlight bounds the backend calls of all of them.
func TestMaxInFlightIsDispatcherWide(t *testing.T) {
	r := newRig()
	go func() {
		for c := range r.calls {
			runtime.Gosched() // let the other units' calls enter
			c.answer <- answer{letters: "o"}
		}
	}()
	d, err := dispatch.New(r.backends(2), dispatch.Options{MaxInFlight: 2, Clock: r})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range 100 {
				specs := make([]sim.ShardSpec, 1+u%4)
				for k := range specs {
					specs[k] = testSpec(uint64(g*1000 + u*4 + k))
				}
				shards, err := runShards(context.Background(), d, specs)
				if err != nil || !slices.EqualFunc(shards, specs, func(sh sim.Shard, s sim.ShardSpec) bool { return sh.Seed == s.Seed }) {
					t.Errorf("run %d, unit %d: %v %+v", g, u, err, shards)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(r.calls)
	if p := r.peak.Load(); p > 2 {
		t.Errorf("%d backend calls in flight at once across three runs, over MaxInFlight 2", p)
	}
}

// runScript pins one of the policy's examples as a script against the
// model. scripts gives, per backend (split by |), the answers its calls give
// in turn (letters, then the delay in ms; the last repeats; t*n is n of t)
// and, after a /, its probes' verdicts (+ ok, - not; + by default). units
// are the units in turn, each a member count or an idle — r to the
// cooldown's end after the latest death or probe, r-1 to 1 ns before it.
// want is the model's state after the last unit, which the dispatcher
// matched unit by unit.
func runScript(t *testing.T, scripts, units, want string, hedge bool) {
	backends := strings.Split(scripts, "|")
	h := newDriver(t, len(backends), hedge)
	answers, verdicts := make([][]string, len(backends)), make([][]string, len(backends))
	for b, s := range backends {
		calls, probes, _ := strings.Cut(s, "/")
		answers[b], verdicts[b] = expand(calls), append(expand(probes), "+")
	}
	h.draw = func(cs []*mCall, _ int) {
		for _, c := range cs {
			tok := pop(&answers[c.b])
			letters := strings.TrimRight(tok, "0123456789")
			ms, _ := strconv.Atoi(tok[len(letters):])
			c.a = answer{letters, time.Duration(ms) * time.Millisecond}
		}
	}
	h.verdict = func(b int) string { return pop(&verdicts[b]) }
	for _, u := range expand(units) {
		switch cooldown := h.m.lastDead.Add(mReviveAfter).Sub(h.m.now); u {
		case "r":
			h.idle(cooldown)
		case "r-1":
			h.idle(cooldown - time.Nanosecond)
		default:
			n, _ := strconv.Atoi(u)
			h.unit(n)
		}
	}
	h.inFlight()
	if got := h.String(); got != want {
		t.Errorf("after the last unit:\n got %s\nwant %s", got, want)
	}
}

// The policy's examples, each a script. A state reads: the calls each
// backend saw, the Healthy set, Hedges/HedgeWins, Probes, the hedge delay
// last armed, and the last unit's members as outcome (o done, i invalid, f
// out of attempts, d all dead, c cancelled) and Attempts.

func TestRetrySameBackend(t *testing.T) {
	runScript(t, "x0 x0 o0", "1", "calls [3] healthy [a] hedges 0/0 probes 0 delay 0s: o3", false)
}

// Every retry is checked to fire within [0, BackoffCap << (k-1)) of the
// failure before it.
func TestBackoffIsFullJitterUnderTheCap(t *testing.T) {
	runScript(t, strings.Repeat("x0 x0 o0 ", 16), "1*16", "calls [48] healthy [a] hedges 0/0 probes 0 delay 0s: o3", false)
}

func TestFailoverToLiveBackend(t *testing.T) {
	runScript(t, "r0 | o0", "1*8", "calls [3 8] healthy [b] hedges 0/0 probes 0 delay 0s: o1", false)
}

// Two units exhaust both backends; the third is abandoned with every
// backend dead.
func TestAllBackendsDead(t *testing.T) {
	runScript(t, "r0 | r0", "2 2 1", "calls [3 3] healthy [] hedges 0/0 probes 0 delay 0s: d1", false)
}

func TestInvalidSpecNotRetried(t *testing.T) {
	runScript(t, "i0", "1", "calls [1] healthy [a] hedges 0/0 probes 0 delay 0s: i1", false)
}

func TestInvalidSpecDoesNotMarkBackendsDead(t *testing.T) {
	runScript(t, "i0", "1*5", "calls [5] healthy [a] hedges 0/0 probes 0 delay 0s: i1", false)
}

// A cancelled unit's call settles and gives back the one slot, which the
// next unit gets.
func TestCancellationReleasesWorkers(t *testing.T) {
	runScript(t, "c o0", "16 1", "calls [2] healthy [a] hedges 0/0 probes 0 delay 0s: o1", false)
}

// Three cancelled calls in a row, FailThreshold of them, blame no one.
func TestCancellationDoesNotMarkBackendsDead(t *testing.T) {
	runScript(t, "c", "8*3", "calls [3] healthy [a] hedges 0/0 probes 0 delay 0s: c1 c1 c1 c1 c1 c1 c1 c1", false)
}

// The hung call is live 1 ns before its deadline, 30 s + 10 ms for two
// members, and timed out at it.
func TestHungBackendFailsOver(t *testing.T) {
	runScript(t, "h | o0", "2", "calls [1 1] healthy [a b] hedges 0/0 probes 0 delay 0s: o2 o2", false)
}

// No probe 1 ns before ReviveAfter; one at it, which revives the backend.
func TestDeadBackendRevives(t *testing.T) {
	runScript(t, "x0*3 o0 | o0", "1*3 r-1 1 r 1 1", "calls [4 5] healthy [a b] hedges 0/0 probes 1 delay 0s: o1", false)
}

// Failed probes restart the cooldown; no unit is sent to the dead backend
// to find out whether it lives.
func TestProbeRevivalWithoutSacrifice(t *testing.T) {
	runScript(t, "x0*3 o0 / - - + | o0", "1*3 r 1 r-1 1 r 1 r 1 1", "calls [4 7] healthy [a b] hedges 0/0 probes 3 delay 0s: o1", false)
}

// One probe for an expired cooldown across the three picks of a retried
// unit.
func TestSingleProberInvariant(t *testing.T) {
	runScript(t, "x0*3 / - | o0*3 x0 x0 o0", "1*3 r 1", "calls [3 6] healthy [b] hedges 0/0 probes 1 delay 0s: o3", false)
}

func TestDerivedHedgeDelayNeedsSamples(t *testing.T) {
	runScript(t, "o64 | o1", "1", "calls [1 0] healthy [a b] hedges 0/0 probes 0 delay 0s: o1", true)
}

func TestHedgeNeedsASecondBackend(t *testing.T) {
	runScript(t, "o1 o4", "1 1", "calls [2] healthy [a] hedges 0/0 probes 0 delay 2ms: o1", true)
}

func TestHedgeWinsWithoutBlame(t *testing.T) {
	runScript(t, "o1 h | o1", "1*4", "calls [4 3] healthy [a b] hedges 3/3 probes 0 delay 2ms: o1", true)
}

// The primary holds MaxInFlight's one slot, and each straggler is hedged
// anyway, within the bound of two calls in flight.
func TestHedgeFiresWhenPoolSaturated(t *testing.T) {
	runScript(t, "o10 o100 | o1", "1*4", "calls [4 3] healthy [a b] hedges 3/3 probes 0 delay 20ms: o1", true)
}

// The hedge call starts exactly 60 ms after the unit when the p95 is 30 ms.
func TestDerivedHedgeFiresAtTwiceP95(t *testing.T) {
	runScript(t, "o30 o50 o10*19 h | h*20 o1", "1*22", "calls [22 21] healthy [a b] hedges 21/1 probes 0 delay 60ms: o1", true)
}

func TestFailedMemberIsResentAlone(t *testing.T) {
	runScript(t, "ooxoooooo0 o0", "9", "calls [2] healthy [a] hedges 0/0 probes 0 delay 0s: o1 o1 o2 o1 o1 o1 o1 o1 o1", false)
}

// expand splits a script into its tokens.
func expand(s string) []string {
	var out []string
	for _, f := range strings.Fields(s) {
		tok, rep, _ := strings.Cut(f, "*")
		n, err := strconv.Atoi(rep)
		for i := 0; i < n || err != nil && i == 0; i++ {
			out = append(out, tok)
		}
	}
	return out
}

// pop takes a script's next token; its last one repeats.
func pop(q *[]string) string {
	tok := (*q)[0]
	if len(*q) > 1 {
		*q = (*q)[1:]
	}
	return tok
}
