package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/workload"
)

// specN builds a valid spec expanding to exactly n shards (n seeds of one
// single-config observer over one workload), whose report holds n + 1
// entries.
func specN(n int) *sim.Spec { return specFrom(1, n) }

// specFrom is specN with seeds from first on.
func specFrom(first uint64, n int) *sim.Spec {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = first + uint64(i)
	}
	return &sim.Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     seeds,
		Insts:     1000,
		Observers: []sim.ObserverSpec{{Kind: "bbl"}},
	}
}

// oneSeed builds a valid spec of n shards over one seed (n BTB
// geometries), whose report holds 2n entries.
func oneSeed(n int) *sim.Spec {
	geoms := make([]string, n)
	for i := range geoms {
		geoms[i] = fmt.Sprintf(`{"entries":%d,"ways":1}`, i+1)
	}
	return &sim.Spec{
		Workloads: []string{"comd-lite"},
		Insts:     1000,
		Observers: []sim.ObserverSpec{{Kind: "btb", Options: json.RawMessage(`{"geometries":[` + strings.Join(geoms, ",") + `]}`)}},
	}
}

// waitFor yields until cond holds, for a state a sweep's run goroutine
// will reach; it spins on Gosched, never sleeps.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
	}
}

// waitState waits until the sweep reaches want.
func waitState(t *testing.T, c *Coordinator, id string, want State) Status {
	t.Helper()
	var st Status
	waitFor(t, fmt.Sprintf("sweep %s reaches %s", id, want), func() bool {
		var ok bool
		if st, ok = c.Get(id); !ok {
			t.Fatalf("sweep %s vanished while waiting for %s", id, want)
		}
		return st.State == want
	})
	return st
}

// TestLifecycleRealRun drives a real sim.Session through the coordinator:
// submit returns running immediately, the sweep lands done with full
// progress, and the final report is byte-identical to a synchronous run
// of the same spec (modulo the documented timing fields).
func TestLifecycleRealRun(t *testing.T) {
	sess := sim.NewSession(2)
	c, err := New(Options{Run: sess.Run})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := &sim.Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{1, 2},
		Insts:     10_000,
		Observers: []sim.ObserverSpec{{Kind: "bbl"}, {Kind: "bias"}},
	}
	st, err := c.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Tenant != "alice" || st.Progress.TotalShards != 4 {
		t.Fatalf("submit status %+v", st)
	}
	final := waitState(t, c, st.ID, StateDone)
	if final.Progress.DoneShards != 4 || final.Progress.FailedShards != 0 {
		t.Errorf("final progress %+v, want 4 done", final.Progress)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("terminal status missing timestamps: %+v", final)
	}

	rep, err := c.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(r *sim.Report) string {
		enc, err := json.Marshal(r.Stripped())
		if err != nil {
			t.Fatal(err)
		}
		return string(enc)
	}
	if norm(rep) != norm(sync) {
		t.Errorf("async report differs from synchronous run:\nasync: %s\n sync: %s", norm(rep), norm(sync))
	}
}

// TestProgressCountsShardOutcomes: a running sweep's status counts the
// outcomes the session delivers through sim.ShardDone — a cached shard is
// done and cached, a computed one done, a failed one failed. The three
// arrive from their own goroutines while the test polls Get, so under
// -race the hook's writes and the status reads meet on the coordinator's
// one mutex.
func TestProgressCountsShardOutcomes(t *testing.T) {
	c, err := New(Options{
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			var wg sync.WaitGroup
			for _, out := range []struct {
				sh  sim.Shard
				err error
			}{
				{sim.Shard{Workload: "comd-lite", Seed: 1, Observer: "bbl", Cached: true}, nil},
				{sim.Shard{Workload: "comd-lite", Seed: 2, Observer: "bbl"}, nil},
				{sim.Shard{}, errors.New("sim: shard {comd-lite 3 bbl}: rejected")},
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sim.ShardDone(ctx, out.sh, out.err)
				}()
			}
			wg.Wait()
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Submit("t", specN(3))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	waitFor(t, "three shard outcomes counted", func() bool {
		st, _ = c.Get(sub.ID)
		return st.Progress.DoneShards+st.Progress.FailedShards == 3
	})
	want := Progress{TotalShards: 3, DoneShards: 2, CachedShards: 1, FailedShards: 1}
	if st.State != StateRunning || st.Progress != want {
		t.Errorf("Get = %s %+v, want running %+v", st.State, st.Progress, want)
	}
	if _, err := c.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, sub.ID, StateCancelled)
}

// blockingRun returns a RunFunc whose executions block until released
// (or their context is cancelled), recording start/finish order.
type blockingRun struct {
	mu       sync.Mutex
	started  []string
	finished []string
	release  chan struct{} // closed or fed to let runs finish
}

func newBlockingRun() *blockingRun {
	return &blockingRun{release: make(chan struct{})}
}

func (b *blockingRun) run(name string) RunFunc {
	return func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
		b.mu.Lock()
		b.started = append(b.started, name)
		b.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-b.release:
		}
		b.mu.Lock()
		b.finished = append(b.finished, name)
		b.mu.Unlock()
		return &sim.Report{Schema: sim.SchemaV1}, nil
	}
}

// TestCancelRunning pins the one cancellation path: cancelling a running
// sweep answers running, ends its context, and the sweep lands cancelled
// once the run unwinds; Report's error is then ErrCancelled, and
// cancelling the terminal sweep is ErrTerminal.
func TestCancelRunning(t *testing.T) {
	started, unwound := make(chan struct{}), make(chan struct{})
	c, err := New(Options{
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			close(started)
			<-ctx.Done()
			<-unwound
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Submit("t", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// The run is held past its context's end, so the cancel cannot have
	// landed when Cancel answers.
	if st, err := c.Cancel(sub.ID); err != nil || st.State != StateRunning {
		t.Fatalf("cancel: (%s, %v), want running until the run unwinds", st.State, err)
	}
	if _, err := c.Report(sub.ID); !errors.Is(err, ErrNotTerminal) {
		t.Errorf("Report before the cancel landed: %v, want ErrNotTerminal", err)
	}
	close(unwound)
	waitState(t, c, sub.ID, StateCancelled)
	if _, err := c.Report(sub.ID); !errors.Is(err, ErrCancelled) {
		t.Errorf("Report of a cancelled sweep: %v, want ErrCancelled", err)
	}
	if _, err := c.Cancel(sub.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("re-cancel terminal sweep: %v, want ErrTerminal", err)
	}
}

// TestAdmissionControl pins the budget's admission at MaxShards 8: a
// share of 2 × 8 + sweepCost = 48 entries, a budget of 96. A grid over
// MaxShards is ErrInvalidSpec before it touches any state. Tenant a running
// the largest sweep, one seed over 8 shards, holds its whole share: its
// next submit is ErrQueueFull, whose text names what a runs, its share and
// what is held, while tenant b's small submit is admitted beside it. A
// submit past the budget is ErrQueueFull for a tenant with an empty share,
// and every refusal leaves the tenant table as it was.
func TestAdmissionControl(t *testing.T) {
	const maxShards, share = 8, 2*8 + sweepCost
	b := newBlockingRun()
	c, err := New(Options{MaxShards: maxShards, Run: b.run("x")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(b.release); c.Close() }()

	if _, err := c.Submit("a", specN(maxShards+1)); !errors.Is(err, sim.ErrInvalidSpec) {
		t.Errorf("a grid over MaxShards: %v, want ErrInvalidSpec", err)
	}
	if _, err := c.Submit("a", oneSeed(maxShards)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("a", specN(1)); !errors.Is(err, ErrQueueFull) ||
		!strings.Contains(err.Error(), `sweep of 34 entries does not fit: tenant "a" runs 48 of its 48, and 48 of 96 are held`) {
		t.Errorf("submit past a full share: %v, want ErrQueueFull naming the share", err)
	}
	if _, err := c.Submit("b", specN(1)); err != nil {
		t.Errorf("tenant b's small submit refused while only a's share is full: %v", err)
	}
	// c's share is empty, but its 34 entries pass the budget's 96 beside
	// the 82 running.
	if _, err := c.Submit("c", specN(1)); !errors.Is(err, ErrQueueFull) ||
		!strings.Contains(err.Error(), `tenant "c" runs 0 of its 48, and 82 of 96 are held`) {
		t.Errorf("a new tenant's submit past the budget: %v, want ErrQueueFull", err)
	}
	// Malformed specs are 400-class rejections before they run, even
	// with a full share they would never have entered.
	if _, err := c.Submit("a", &sim.Spec{}); !errors.Is(err, sim.ErrInvalidSpec) {
		t.Errorf("invalid spec: %v, want ErrInvalidSpec", err)
	}
	if _, err := c.Submit("", specN(1)); !errors.Is(err, sim.ErrInvalidSpec) {
		t.Errorf("empty tenant: %v, want ErrInvalidSpec", err)
	}
	st := c.Stats()
	if st.Running != 2 || st.Budget != 2*share || st.HeldRunning != 82 || len(st.Tenants) != 2 ||
		st.Tenants["a"].HeldRunning != share || st.Tenants["b"].HeldRunning != 34 {
		t.Errorf("stats %+v", st)
	}
}

// stuckRunner is a sim.ShardRunner whose calls return only once their
// context ends: a session behind it holds every grid it admits.
type stuckRunner struct{}

func (stuckRunner) RunShards(ctx context.Context, _ []sim.ShardSpec) ([]sim.Outcome, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestBudgetBoundsMintedTenants submits to a real cached one-slot session
// whose runner never returns, one sweep of disjoint seeds per submit,
// until admission refuses: from a thousand minted tenant names, with
// sweeps of 1,023 seeds and of one, and from one name with one-seed
// sweeps, the smallest and so the most sweeps a budget admits. Admission
// stops at the budget (the share, for one name), and a refused name is
// not listed. Once every admitted sweep waits at the session's gate with
// its grid expanded (its one pool goroutine started), the live heap plus
// the goroutine stacks grow by at most 1 KiB a charged entry plus 1 MiB
// for the session and the coordinator's records, and the goroutines by two
// per admitted sweep (its run and its pool goroutine) plus two. Not
// parallel: it reads the process's heap, stacks and goroutine counts.
func TestBudgetBoundsMintedTenants(t *testing.T) {
	const names, perEntry, slack = 1000, 1 << 10, 1 << 20
	for _, tc := range []struct {
		name   string
		seeds  int
		tenant func(i int) string
	}{
		{"minted-1023-seeds", 1023, func(i int) string { return fmt.Sprint("minted-", i) }},
		{"minted-1-seed", 1, func(i int) string { return fmt.Sprint("minted-", i) }},
		{"one-name-1-seed", 1, func(int) string { return "one" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := shardcache.New(shardcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sess := sim.NewSession(1)
			sess.SetCache(cache)
			sess.SetRunner(stuckRunner{})
			c, err := New(Options{Run: sess.Run})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			before := liveBytes()
			goroutines := runtime.NumGoroutine()
			admitted, tenants := 0, map[string]bool{}
			for i := range names {
				_, err := c.Submit(tc.tenant(i), specFrom(uint64(i*tc.seeds+1), tc.seeds))
				switch {
				case err == nil:
					admitted++
					tenants[tc.tenant(i)] = true
				case !errors.Is(err, ErrQueueFull):
					t.Fatalf("submit %d: %v", i, err)
				}
				if st := c.Stats(); st.HeldRunning+st.HeldUncollected > st.Budget || len(st.Tenants) != len(tenants) {
					t.Fatalf("after %d submits: %d sweeps admitted hold %d entries of %d, %d tenants listed",
						i+1, admitted, st.HeldRunning+st.HeldUncollected, st.Budget, len(st.Tenants))
				}
			}
			st, charge, limit := c.Stats(), tc.seeds+1+sweepCost, c.Stats().Budget
			if len(tenants) == 1 {
				limit = st.Budget / 2 // a share
			}
			if admitted != limit/charge {
				t.Fatalf("%d sweeps of %d entries admitted, want the %d that fill %d", admitted, charge, limit/charge, limit)
			}
			waitFor(t, "every admitted grid waits at the gate", func() bool {
				return runtime.NumGoroutine()-goroutines >= 2*admitted
			})
			grown, live := liveBytes()-before, runtime.NumGoroutine()-goroutines
			t.Logf("%d sweeps admitted: live heap and stacks +%d B (%.0f B per charged entry, %.0f B per sweep), %d goroutines",
				admitted, grown, float64(grown)/float64(st.HeldRunning), float64(grown)/float64(admitted), live)
			if bound := int64(st.HeldRunning)*perEntry + slack; grown > bound {
				t.Errorf("admitted sweeps grew the live heap and stacks by %d B, over %d B", grown, bound)
			}
			if bound := 2*admitted + 2; live > bound {
				t.Errorf("%d goroutines beyond the baseline, want at most %d", live, bound)
			}
		})
	}
}

// TestRetention pins the eviction contract on virtual time: a terminal
// sweep survives Retain and is gone at Retain + 1 ns; beyond maxRetained
// the oldest-finished are evicted even inside Retain; and a running sweep
// is never evicted, however far past Retain the clock runs.
func TestRetention(t *testing.T) {
	const retain = time.Hour
	v := clock.NewVirtual()
	b := newBlockingRun()
	c, err := New(Options{Retain: retain, Run: b.run("x"), Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	finish := func() { b.release <- struct{}{} }

	st, err := c.Submit("t", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	finish()
	waitState(t, c, st.ID, StateDone) // finished now, on the virtual clock
	v.Advance(retain)
	if _, ok := c.Get(st.ID); !ok {
		t.Fatal("sweep evicted at exactly Retain")
	}
	v.Advance(time.Nanosecond)
	if _, ok := c.Get(st.ID); ok {
		t.Fatal("sweep still retained at Retain + 1 ns")
	}

	var ids []string
	for i := 0; i < maxRetained+2; i++ {
		st, err := c.Submit("t", specN(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		finish()
		waitState(t, c, st.ID, StateDone)
	}
	// Each sweep landed before the next was submitted, so the two oldest
	// are the ones past maxRetained.
	for i, id := range ids {
		if _, ok := c.Get(id); ok != (i >= 2) {
			t.Errorf("sweep %d of %d: retained = %v with maxRetained %d", i, len(ids), ok, maxRetained)
		}
	}

	// A running sweep is never evicted, whatever the pressure.
	runningSt, err := c.Submit("t", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	if runningSt.State != StateRunning {
		t.Fatalf("submit answered %s, want running", runningSt.State)
	}
	v.Advance(2 * retain) // everything terminal is now past the TTL
	if st := c.Stats(); st.Retained != 0 {
		t.Errorf("%d terminal sweeps retained past TTL", st.Retained)
	}
	if st, ok := c.Get(runningSt.ID); !ok || st.State != StateRunning {
		t.Fatalf("running sweep evicted by retention (ok=%v, st=%+v)", ok, st)
	}
	finish()
	waitState(t, c, runningSt.ID, StateDone)
	close(b.release)
}

// TestListAndStats covers the listing surface: tenant filtering,
// newest-first order, and the budget's gauges: the budget and a tenant's
// share of it, the entries charged to a running sweep, in total and to its
// tenant, and the uncollected reports' entries, which a Report hands back.
func TestListAndStats(t *testing.T) {
	c, err := New(Options{Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
		if len(spec.Seeds) > 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &sim.Report{Shards: make([]sim.Shard, 1), Merged: make([]sim.Merged, 1)}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a1, _ := c.Submit("a", specN(1))
	b1, _ := c.Submit("b", specN(1))
	a2, _ := c.Submit("a", specN(1))
	for _, st := range []Status{a1, b1, a2} {
		waitState(t, c, st.ID, StateDone)
	}
	all := c.List("")
	if len(all) != 3 || all[0].ID != a2.ID {
		t.Errorf("List(\"\") = %+v, want 3 newest-first", all)
	}
	onlyA := c.List("a")
	if len(onlyA) != 2 {
		t.Errorf("List(a) returned %d, want 2", len(onlyA))
	}
	for _, st := range onlyA {
		if st.Tenant != "a" {
			t.Errorf("List(a) leaked tenant %s", st.Tenant)
		}
	}
	st := c.Stats()
	if st.Tenants["a"].Done != 2 || st.Tenants["b"].Done != 1 {
		t.Errorf("stats %+v", st.Tenants)
	}

	if _, err := c.Submit("b", specN(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(a1.ID); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Budget != 2*(2*4096+sweepCost) || st.HeldRunning != 4+sweepCost || st.HeldUncollected != 4 ||
		st.Tenants["b"].Running != 1 || st.Tenants["b"].HeldRunning != 4+sweepCost || st.Tenants["a"].HeldRunning != 0 {
		t.Errorf("with b running 3 shards and two 2-entry reports uncollected: %+v", st)
	}
}

// TestTenantTableBounded pins the tenant table's resource bound: a tenant
// is dropped with its last retained sweep, so a client inventing a new
// tenant name per submit cannot grow the table (or /v1/stats) past the
// retention limit plus the work in hand.
func TestTenantTableBounded(t *testing.T) {
	const retained = maxRetained
	c, err := New(Options{
		Run: func(context.Context, *sim.Spec) (*sim.Report, error) {
			return &sim.Report{Schema: sim.SchemaV1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	observe := func() Stats {
		st := c.Stats()
		if bound := retained + st.Running; len(st.Tenants) > bound {
			t.Fatalf("%d tenants tracked with %d running, %d retained: want <= %d",
				len(st.Tenants), st.Running, st.Retained, bound)
		}
		return st
	}
	for i := 0; i < 1000; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		_, err := c.Submit(tenant, specN(1))
		// On one P the submits can outrun the sweeps landing until the
		// running ones fill the budget: wait for one to land and resubmit.
		for errors.Is(err, ErrQueueFull) {
			running := observe().Running
			waitFor(t, "a running sweep lands", func() bool { return observe().Running < running })
			_, err = c.Submit(tenant, specN(1))
		}
		if err != nil {
			t.Fatal(err)
		}
		observe()
	}
	waitFor(t, "the sweeps drain", func() bool {
		st := observe()
		return st.Running == 0
	})
	if st := observe(); len(st.Tenants) != retained || st.Retained != retained {
		t.Errorf("drained coordinator tracks %d tenants over %d retained sweeps, want %d of each", len(st.Tenants), st.Retained, retained)
	}

	// A dropped tenant that comes back starts from zero. Which tenants were
	// dropped is up to the finish order of the concurrent runs.
	dropped := ""
	for i := 0; dropped == ""; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if _, kept := observe().Tenants[name]; !kept {
			dropped = name
		}
	}
	st, err := c.Submit(dropped, specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateDone)
	if got := observe().Tenants[dropped]; got.Done != 1 {
		t.Errorf("returning tenant's counters = %+v, want a fresh entry with done=1", got)
	}
}

// TestSubmitAfterClose: a closed coordinator refuses work, and Close
// returns with every running sweep landed cancelled.
func TestSubmitAfterClose(t *testing.T) {
	b := newBlockingRun()
	c, err := New(Options{Run: b.run("x")})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := c.Submit("t", specN(1))
	second, _ := c.Submit("t", specN(1))
	c.Close()
	if _, err := c.Submit("t", specN(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
	for _, id := range []string{first.ID, second.ID} {
		if st, ok := c.Get(id); !ok || st.State != StateCancelled {
			t.Errorf("sweep %s after close: %+v, want cancelled", id, st)
		}
	}
}

// TestRun pins Run's answers and what it leaves retained. A one-seed sweep
// lands at once, done or failed as the row says, and a two-seed sweep runs
// until its context ends. Rows that need the sweep's handle before the wait
// submit and await it themselves, as Run does. No row sleeps: where the
// wait races a cancel or a Close, every interleaving has the one answer the
// row expects, and a sweep cancelled under a wait is read once it landed.
func TestRun(t *testing.T) {
	report := &sim.Report{Schema: sim.SchemaV1}
	boom := errors.New("sweep test: the run failed")
	bg := context.Background()
	ended, end := context.WithCancel(bg)
	end()
	const retain = time.Minute
	submit := func(t *testing.T, c *Coordinator, seeds int) *job {
		t.Helper()
		j, _, err := c.submit("t", specN(seeds), true)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, tc := range []struct {
		name string
		fail error // what a one-seed sweep's run returns
		// wait submits what the row needs and waits on one sweep, returning
		// its ID ("" from Run, which hands back none) with the answer.
		wait    func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error)
		wantErr error // nil: the answer is the run's report
		// wantKept is the state the sweep is retained in once the wait
		// returns; "" when it is dropped.
		wantKept State
	}{
		{"done", nil, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			rep, err := c.Run(bg, "t", specN(1), nil)
			return "", rep, err
		}, nil, ""},
		{"failed", boom, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			rep, err := c.Run(bg, "t", specN(1), nil)
			return "", rep, err
		}, boom, ""},
		{"cancelled while running", nil, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			j := submit(t, c, 2)
			if _, err := c.Cancel(j.id); err != nil {
				t.Fatal(err)
			}
			rep, err := c.await(bg, j)
			return j.id, rep, err
		}, ErrCancelled, ""},
		{"ctx ends while running", nil, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			j := submit(t, c, 2)
			ctx, cancel := context.WithCancel(bg)
			go cancel()
			rep, err := c.await(ctx, j)
			<-j.landed
			return j.id, rep, err
		}, context.Canceled, StateCancelled},
		{"Close while waiting", nil, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			j := submit(t, c, 2)
			go c.Close()
			rep, err := c.await(bg, j)
			return j.id, rep, err
		}, ErrCancelled, ""},
		{"landed before ctx ended", nil, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			j := submit(t, c, 1)
			<-j.landed
			rep, err := c.await(ended, j)
			return j.id, rep, err
		}, nil, ""},
		{"landed past Retain", nil, func(t *testing.T, c *Coordinator, v *clock.Virtual) (string, *sim.Report, error) {
			async, err := c.Submit("t", specN(1))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, c, async.ID, StateDone)
			j := submit(t, c, 1)
			<-j.landed
			if st := c.Stats(); st.Retained != 1 {
				t.Fatalf("%d sweeps retained, want the async one alone", st.Retained)
			}
			// Evicting the async sweep takes the tenant's entry with it.
			v.Advance(retain + time.Nanosecond)
			if _, ok := c.Stats().Tenants["t"]; ok {
				t.Fatal("tenant outlived its last retained sweep")
			}
			rep, err := c.await(bg, j)
			return j.id, rep, err
		}, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := clock.NewVirtual()
			c, err := New(Options{Retain: retain, Clock: v, Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
				if len(spec.Seeds) == 1 {
					if tc.fail != nil {
						return nil, tc.fail
					}
					return report, nil
				}
				<-ctx.Done()
				return nil, ctx.Err()
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id, rep, err := tc.wait(t, c, v)
			if tc.wantErr == nil {
				if err != nil || rep != report {
					t.Errorf("answer = %v, %v; want the run's report", rep, err)
				}
			} else if rep != nil || !errors.Is(err, tc.wantErr) {
				t.Errorf("answer = %v, %v; want %v", rep, err, tc.wantErr)
			}
			if tc.wantKept != "" {
				if st, ok := c.Get(id); !ok || st.State != tc.wantKept || c.Stats().Retained != 1 {
					t.Errorf("sweep after the wait: %+v (found %v, %d retained), want it retained %s", st, ok, c.Stats().Retained, tc.wantKept)
				}
			} else if st, ok := c.Get(id); ok || id == "" && len(c.List("")) != 0 {
				t.Errorf("sweep after the wait: %+v (%d listed), want it dropped", st, len(c.List("")))
			}
		})
	}
}

// TestRunKeepsAsyncResults: sync runs leave the retention list as they
// answer, so any number of them never evicts a landed async sweep whose
// client has yet to fetch it.
func TestRunKeepsAsyncResults(t *testing.T) {
	report := &sim.Report{Schema: sim.SchemaV1}
	c, err := New(Options{Run: func(context.Context, *sim.Spec) (*sim.Report, error) { return report, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	async, err := c.Submit("async", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, async.ID, StateDone)
	for i := 0; i <= maxRetained; i++ {
		if rep, err := c.Run(context.Background(), "sync", specN(1), nil); err != nil || rep != report {
			t.Fatalf("sync run %d: %v, %v", i, rep, err)
		}
	}
	if rep, err := c.Report(async.ID); err != nil || rep != report {
		t.Errorf("async result after %d sync runs: %v, %v", maxRetained+1, rep, err)
	}
	if st := c.Stats(); st.Retained != 1 {
		t.Errorf("retained %d sweeps, want the async one alone", st.Retained)
	}
}

// heldEntryBytes is the per-entry bound Options.MaxShards' doc states: what one
// shard or merged entry of a held report of the built-in workloads keeps
// live, footprint's being the largest.
const heldEntryBytes = 4 << 10

// footprintReport is a spec of footprint, the kind whose entries are the
// largest, over every built-in workload and seeds seeds, and the encoding
// of its report: each DecodeReport of it is a fresh report with every
// result its own, as a front door's dispatched report is.
func footprintReport(t *testing.T, seeds int) (*sim.Spec, []byte) {
	t.Helper()
	spec := &sim.Spec{
		Workloads: workload.Names(),
		SeedCount: seeds,
		Insts:     100_000,
		Observers: []sim.ObserverSpec{{Kind: "footprint"}},
	}
	rep, err := sim.NewSession(2).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return spec, enc
}

// liveHeap is the heap a collection leaves live.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// liveBytes is liveHeap plus the goroutine stacks in use.
func liveBytes() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc + m.StackInuse)
}

// landAll submits n sweeps of spec one after another, each waited on until
// done and then handed to landed; it returns their IDs in order.
func landAll(t *testing.T, c *Coordinator, n int, spec *sim.Spec, landed func(id string)) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		st, err := c.Submit("t", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitState(t, c, st.ID, StateDone)
		landed(st.ID)
	}
	return ids
}

// decodingRun is a RunFunc answering every sweep with a fresh decode of enc.
func decodingRun(enc []byte) RunFunc {
	return func(context.Context, *sim.Spec) (*sim.Report, error) { return sim.DecodeReport(enc) }
}

// TestHeldReportsWithinBudget lands uncollected sweeps totalling twice the
// default budget's entries, each sweep large enough that far fewer than
// maxRetained of them fill it. Each is admitted by releasing the oldest
// reports: the held entries stay within the budget, the live heap within
// the budget times heldEntryBytes, the newest reports are the ones held,
// and a released one is ErrReportGone saying so.
func TestHeldReportsWithinBudget(t *testing.T) {
	spec, enc := footprintReport(t, 127)
	probe, err := sim.DecodeReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	per := heldShards(probe)
	probe = nil
	c, err := New(Options{Run: decodingRun(enc)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	budget := c.Stats().Budget
	if budget/per >= maxRetained/2 {
		t.Fatalf("a sweep of %d entries is too small: %d of them fit the budget, which maxRetained (%d) would bound alone", per, budget/per, maxRetained)
	}

	before := liveHeap()
	ids := landAll(t, c, 2*budget/per+1, spec, func(string) {})
	grown := liveHeap() - before
	held := c.Stats().HeldUncollected
	t.Logf("%d sweeps of %d entries landed: %d entries held, live heap +%d B (%.0f B per held entry)",
		len(ids), per, held, grown, float64(grown)/float64(held))
	if held > budget || held < budget-per-sweepCost {
		t.Errorf("%d entries held, want the budget's %d filled to within one sweep", held, budget)
	}
	if bound := int64(budget) * heldEntryBytes; grown > bound {
		t.Errorf("held reports grew the live heap by %d B, over the budget's %d B", grown, bound)
	}
	if rep, err := c.Report(ids[len(ids)-1]); err != nil || heldShards(rep) != per {
		t.Errorf("newest report: %d entries, %v; want it held", heldShards(rep), err)
	}
	if _, err := c.Report(ids[0]); !errors.Is(err, ErrReportGone) || !strings.Contains(err.Error(), "released") {
		t.Errorf("oldest report: %v, want ErrReportGone for a release", err)
	}
	if st, ok := c.Get(ids[0]); !ok || st.State != StateDone {
		t.Errorf("a released report's sweep: %+v (found %v), want it still listed done", st, ok)
	}
}

// TestCollectedSweepsKeepOnlyStatuses fetches every report of twice
// maxRetained sweeps as it lands: the coordinator keeps maxRetained of them
// as statuses, and the live heap grows by those alone, not by a report.
func TestCollectedSweepsKeepOnlyStatuses(t *testing.T) {
	const statusBytes = 1 << 10 // what one retained sweep's record may keep live
	spec, enc := footprintReport(t, 2)
	c, err := New(Options{Run: decodingRun(enc)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := liveHeap()
	landAll(t, c, 2*maxRetained, spec, func(id string) {
		if _, err := c.Report(id); err != nil {
			t.Fatal(err)
		}
	})
	grown := liveHeap() - before
	t.Logf("%d sweeps retained after every report was fetched: live heap +%d B (%.0f B each)",
		c.Stats().Retained, grown, float64(grown)/maxRetained)
	if bound := int64(maxRetained) * statusBytes; grown > bound {
		t.Errorf("collected sweeps grew the live heap by %d B, over %d statuses' %d B", grown, maxRetained, bound)
	}
}

// TestOversizeReportIsFetched lands the largest sweep admission allows on
// an idle coordinator: MaxShards shards of one seed, whose report of
// 2 × MaxShards entries fills a share but for sweepCost. It is admitted,
// and its first Report hands it over. Two more landed uncollected fill the
// budget but for two sweepCosts, so a third is admitted by releasing the
// oldest, not refused, and every held entry is the two newest reports'.
func TestOversizeReportIsFetched(t *testing.T) {
	const maxShards = 64
	c, err := New(Options{MaxShards: maxShards, Run: func(_ context.Context, spec *sim.Spec) (*sim.Report, error) {
		n, err := spec.GridSize()
		return &sim.Report{Shards: make([]sim.Shard, n), Merged: make([]sim.Merged, n)}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	land := func() string {
		t.Helper()
		st, err := c.Submit("t", oneSeed(maxShards))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, st.ID, StateDone)
		return st.ID
	}
	full := land()
	if rep, err := c.Report(full); err != nil || heldShards(rep) != 2*maxShards {
		t.Errorf("full-size report: %d entries, %v; want its %d handed over", heldShards(rep), err, 2*maxShards)
	}
	if _, err := c.Report(full); !errors.Is(err, ErrReportGone) {
		t.Errorf("second fetch: %v, want ErrReportGone", err)
	}
	oldest, older, newest := land(), land(), land()
	if _, err := c.Report(oldest); !errors.Is(err, ErrReportGone) || !strings.Contains(err.Error(), "released") {
		t.Errorf("oldest uncollected full-size report after a later submit: %v, want it released", err)
	}
	if st := c.Stats(); st.HeldUncollected != 4*maxShards || st.HeldUncollected > st.Budget {
		t.Errorf("%d entries held, want the two newest reports' %d", st.HeldUncollected, 4*maxShards)
	}
	for _, id := range []string{older, newest} {
		if _, err := c.Report(id); err != nil {
			t.Errorf("a newer report: %v, want it held", err)
		}
	}
}

// TestOutgrownReportIsFetched lands a sweep whose RunFunc answers with a
// report larger than the whole budget, far past its spec's charge: the
// report is held at that charge, so its landing releases nothing, and its
// first Report hands it over whole.
func TestOutgrownReportIsFetched(t *testing.T) {
	const entries = 1000
	c, err := New(Options{MaxShards: 8, Run: func(context.Context, *sim.Spec) (*sim.Report, error) {
		return &sim.Report{Shards: make([]sim.Shard, entries)}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Submit("t", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateDone)
	if held := c.Stats().HeldUncollected; held != 2+sweepCost {
		t.Errorf("%d entries held, want the sweep's charge of %d", held, 2+sweepCost)
	}
	if rep, err := c.Report(st.ID); err != nil || heldShards(rep) != entries {
		t.Errorf("outgrown report: %d entries, %v; want its %d handed over", heldShards(rep), err, entries)
	}
	if _, err := c.Report(st.ID); !errors.Is(err, ErrReportGone) || !strings.Contains(err.Error(), "collected") {
		t.Errorf("second fetch: %v, want ErrReportGone for a collection", err)
	}
}
