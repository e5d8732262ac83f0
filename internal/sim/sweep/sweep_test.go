package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
)

// specN builds a valid spec expanding to exactly n shards (n seeds of one
// single-config observer over one workload).
func specN(n int) *sim.Spec {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return &sim.Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     seeds,
		Insts:     1000,
		Observers: []sim.ObserverSpec{{Kind: "bbl"}},
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
// submit returns queued immediately, the sweep lands done with full
// progress, and the final report is byte-identical to a synchronous run
// of the same spec (modulo the documented timing fields).
func TestLifecycleRealRun(t *testing.T) {
	sess := sim.NewSession(2)
	c, err := New(Options{Run: sess.Run, MaxRunning: 1})
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

// TestCancelQueuedAndRunning pins the two cancellation paths: a queued
// sweep lands cancelled without ever running, and cancelling a running
// sweep propagates ctx cancellation, releases its slot (the next sweep
// starts), and lands cancelled. Either way Report's error is
// ErrCancelled. Cancelling a terminal sweep is ErrTerminal.
func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	c, err := New(Options{
		MaxRunning: 1,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			started <- fmt.Sprint(len(spec.Seeds))
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first, err := c.Submit("t", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit("t", specN(2))
	if err != nil {
		t.Fatal(err)
	}
	<-started // first is running; second queued behind MaxRunning=1

	// Cancel the queued sweep: immediate terminal state, never runs.
	if _, err := c.Cancel(second.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	st := waitState(t, c, second.ID, StateCancelled)
	if st.StartedAt != nil {
		t.Errorf("queued sweep reports a start time after cancel: %+v", st)
	}
	if _, err := c.Report(second.ID); !errors.Is(err, ErrCancelled) {
		t.Errorf("Report of a sweep cancelled while queued: %v, want ErrCancelled", err)
	}

	// A third sweep queues; cancelling the running first must free its
	// slot so the third starts.
	third, err := c.Submit("t", specN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(first.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, c, first.ID, StateCancelled)
	select {
	case got := <-started:
		if got != "3" {
			t.Errorf("slot went to spec with %s seeds, want 3", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelling the running sweep did not release its slot")
	}
	if _, err := c.Report(first.ID); !errors.Is(err, ErrCancelled) {
		t.Errorf("Report of a sweep cancelled while running: %v, want ErrCancelled", err)
	}
	if _, err := c.Cancel(first.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("re-cancel terminal sweep: %v, want ErrTerminal", err)
	}
	_ = third
}

// TestAdmissionControl pins the queue-depth contract: the bound is per
// tenant (the K+1th queued submit is ErrQueueFull while another tenant
// still submits freely), and invalid specs are rejected before queueing.
func TestAdmissionControl(t *testing.T) {
	const k = 3
	b := newBlockingRun()
	c, err := New(Options{QueueDepth: k, MaxRunning: 1, Run: b.run("x")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(b.release); c.Close() }()

	// One sweep occupies the running slot; it left the queue before
	// Submit returned.
	if _, err := c.Submit("a", specN(1)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Running != 1 || st.Queued != 0 {
		t.Fatalf("after the first submit %d running, %d queued; want 1, 0", st.Running, st.Queued)
	}
	// Fill tenant a's queue to exactly K.
	for i := 0; i < k; i++ {
		if _, err := c.Submit("a", specN(1)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := c.Submit("a", specN(1)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("K+1th submit: %v, want ErrQueueFull", err)
	}
	// Admission is per tenant: b is unaffected by a's full queue.
	if _, err := c.Submit("b", specN(1)); err != nil {
		t.Errorf("tenant b rejected while only a is over quota: %v", err)
	}
	// Malformed specs are 400-class rejections before queueing, even
	// with a full queue they would never have entered.
	if _, err := c.Submit("a", &sim.Spec{}); !errors.Is(err, sim.ErrInvalidSpec) {
		t.Errorf("invalid spec: %v, want ErrInvalidSpec", err)
	}
	if _, err := c.Submit("", specN(1)); !errors.Is(err, sim.ErrInvalidSpec) {
		t.Errorf("empty tenant: %v, want ErrInvalidSpec", err)
	}
	st := c.Stats()
	if st.Tenants["a"].Queued != k || st.Tenants["b"].Queued != 1 {
		t.Errorf("stats %+v", st.Tenants)
	}
}

// TestFairnessDRR is the fairness property: tenant A pre-loads a deep
// backlog of sweeps costing a quantum each, tenant B then submits one
// small sweep; with deficit round-robin B's sweep must complete while most
// of A's backlog is still queued — concretely, within the first few
// completions, not after A drains.
func TestFairnessDRR(t *testing.T) {
	const backlog = 12
	b := newBlockingRun()
	done := make(chan struct{}, backlog+1)
	run := func(name string) RunFunc {
		inner := b.run(name)
		return func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			rep, err := inner(ctx, spec)
			done <- struct{}{}
			return rep, err
		}
	}
	// Dispatch by tenant: the coordinator calls one RunFunc, so tag runs
	// by grid size (A = a quantum of shards, B = 2).
	c, err := New(Options{
		MaxRunning: 1,
		QueueDepth: backlog + 1,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			name := "A"
			if len(spec.Seeds) == 2 {
				name = "B"
			}
			return run(name)(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < backlog; i++ {
		if _, err := c.Submit("A", specN(quantum)); err != nil {
			t.Fatal(err)
		}
	}
	bst, err := c.Submit("B", specN(2))
	if err != nil {
		t.Fatal(err)
	}
	// Release runs one at a time and watch the completion order.
	var order []string
	for i := 0; i < backlog+1; i++ {
		b.release <- struct{}{}
		<-done
		b.mu.Lock()
		order = append([]string(nil), b.finished...)
		b.mu.Unlock()
		if len(order) > 0 && order[len(order)-1] == "B" {
			break
		}
	}
	pos := -1
	for i, name := range order {
		if name == "B" {
			pos = i
		}
	}
	if pos == -1 {
		t.Fatalf("B never completed; order %v", order)
	}
	// DRR bound: B was submitted behind A's full backlog, but must be
	// served within the first round of the rotation — at worst after the
	// A sweeps one quantum covers.
	if pos > 3 {
		t.Errorf("B completed at position %d of %v; DRR should interleave it within the first round", pos, order)
	}
	waitState(t, c, bst.ID, StateDone)
	if st := c.Stats(); st.Tenants["A"].Queued == 0 {
		t.Error("A's backlog drained before the fairness check observed it")
	}
	close(b.release)
}

// TestRetention pins the eviction contract on virtual time: a terminal
// sweep survives Retain and is gone at Retain + 1 ns; beyond maxRetained
// the oldest-finished are evicted even inside Retain; and a running sweep
// is never evicted, however far past Retain the clock runs.
func TestRetention(t *testing.T) {
	const retain = time.Hour
	v := clock.NewVirtual()
	b := newBlockingRun()
	c, err := New(Options{MaxRunning: 1, Retain: retain, Run: b.run("x"), Clock: v})
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
	}
	waitState(t, c, ids[len(ids)-1], StateDone)
	// One tenant, one run at a time: sweeps finish in submission order, so
	// the two oldest are the ones past maxRetained.
	for i, id := range ids {
		if _, ok := c.Get(id); ok != (i >= 2) {
			t.Errorf("sweep %d of %d: retained = %v with maxRetained %d", i, len(ids), ok, maxRetained)
		}
	}

	// A running sweep is never evicted, whatever the pressure. Submitted
	// with the slot free, it answers queued and is running on return.
	runningSt, err := c.Submit("t", specN(1))
	if err != nil {
		t.Fatal(err)
	}
	if runningSt.State != StateQueued {
		t.Fatalf("submit answered %s, want queued", runningSt.State)
	}
	if st, _ := c.Get(runningSt.ID); st.State != StateRunning {
		t.Fatalf("sweep %s after Submit returned, want running", st.State)
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

// TestListAndStats covers the listing surface: tenant filtering and
// newest-first order.
func TestListAndStats(t *testing.T) {
	b := newBlockingRun()
	close(b.release) // runs complete immediately
	c, err := New(Options{Run: b.run("x")})
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
		if bound := retained + st.Queued + st.Running; len(st.Tenants) > bound {
			t.Fatalf("%d tenants tracked with %d queued, %d running, %d retained: want <= %d",
				len(st.Tenants), st.Queued, st.Running, st.Retained, bound)
		}
		return st
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Submit(fmt.Sprintf("tenant-%d", i), specN(1)); err != nil {
			t.Fatal(err)
		}
		observe()
	}
	waitFor(t, "the sweeps drain", func() bool {
		st := observe()
		return st.Queued+st.Running == 0
	})
	if st := observe(); len(st.Tenants) != retained || st.Retained != retained {
		t.Errorf("drained coordinator tracks %d tenants over %d retained sweeps, want %d of each", len(st.Tenants), st.Retained, retained)
	}

	// A dropped tenant that comes back starts from zero. Which tenants were
	// dropped is up to the finish order of the runs two slots interleave.
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

// TestSubmitAfterClose: a closed coordinator refuses work and leaves
// queued sweeps cancelled.
func TestSubmitAfterClose(t *testing.T) {
	b := newBlockingRun()
	c, err := New(Options{MaxRunning: 1, Run: b.run("x")})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := c.Submit("t", specN(1))
	queued, _ := c.Submit("t", specN(1))
	c.Close()
	if _, err := c.Submit("t", specN(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st, ok := c.Get(id); !ok || st.State != StateCancelled {
			t.Errorf("sweep %s after close: %+v, want cancelled", id, st)
		}
	}
}
