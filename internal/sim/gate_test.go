package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// waiting counts the units waiting on the gate.
func (g *gate) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, t := range g.ring {
		n += len(t.waiting)
	}
	return n
}

// awaitWaiting yields until n units wait on s's gate; it spins on Gosched,
// never sleeps.
func awaitWaiting(t *testing.T, s *Session, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.gate.waiting() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d units wait on the gate, want %d", s.gate.waiting(), n)
		}
	}
}

// refDRR is the gate's contract restated over claim numbers: FIFO queues
// per tenant, a rotation of the tenants with a claim waiting, a quantum of
// credit per visit, a stall on slots that keeps the front tenant charged,
// and credit forfeited when a tenant's queue empties.
type refDRR struct {
	free    int
	ring    []string
	queue   map[string][]int
	deficit map[string]int
	charged map[string]bool
	cost    map[int]int

	stalls, rotations int // what the sequence exercised
}

// grant runs the round-robin and returns the claims it granted, in order.
func (m *refDRR) grant() []int {
	var granted []int
	for m.free > 0 && len(m.ring) > 0 {
		name := m.ring[0]
		if !m.charged[name] {
			m.deficit[name] += quantum
			m.charged[name] = true
		}
		for q := m.queue[name]; len(q) > 0 && m.free > 0 && m.cost[q[0]] <= m.deficit[name]; q = m.queue[name] {
			m.deficit[name] -= m.cost[q[0]]
			m.free--
			granted = append(granted, q[0])
			m.queue[name] = q[1:]
		}
		switch {
		case len(m.queue[name]) == 0:
			m.drop(name)
		case m.free == 0:
			m.stalls++
			return granted
		default:
			m.rotations++
			m.charged[name] = false
			m.ring = append(m.ring[1:], name)
		}
	}
	return granted
}

func (m *refDRR) drop(name string) {
	delete(m.queue, name)
	delete(m.deficit, name)
	delete(m.charged, name)
	m.ring = slices.DeleteFunc(m.ring, func(r string) bool { return r == name })
}

// TestGateMatchesDRR drives the gate with random acquire, release and
// cancel sequences — four tenants, unit costs of 1 to 40, one to four slots
// — against refDRR: after every step the claims the gate granted must be
// the ones the reference grants, in the same order, and the free slots and
// waiting claims must agree. A cancel withdraws a waiting claim, or gives
// back a held one whose context ended after its grant.
func TestGateMatchesDRR(t *testing.T) {
	var stalls, rotations, leaves int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 1 + rng.Intn(4)
		g := &gate{free: slots}
		m := &refDRR{free: slots, queue: map[string][]int{}, deficit: map[string]int{},
			charged: map[string]bool{}, cost: map[int]int{}}
		var claims []*claim // nil for one granted as it was queued
		var tenants []string
		var held, waiting []int
		var order []int // every grant, in order
		check := func(step int, what string, want []int) {
			t.Helper()
			var got []int
			for _, id := range waiting {
				if claims[id] == nil {
					got = append(got, id)
					continue
				}
				select {
				case <-claims[id].ready:
					got = append(got, id)
				default:
				}
			}
			// At most one grant per step (a step frees at most one slot, or
			// queues one claim), so the set is the order.
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): gate granted %v, reference %v", seed, step, what, got, want)
			}
			for _, id := range got {
				waiting = slices.DeleteFunc(waiting, func(w int) bool { return w == id })
				held = append(held, id)
			}
			order = append(order, got...)
			if g.free != m.free || g.waiting() != len(waiting) {
				t.Fatalf("seed %d step %d (%s): gate has %d free, %d waiting; reference %d, %d",
					seed, step, what, g.free, g.waiting(), m.free, len(waiting))
			}
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 50 || len(held)+len(waiting) == 0:
				tenant := string(rune('a' + rng.Intn(4)))
				id, cost := len(claims), 1+rng.Intn(40)
				claims = append(claims, g.enqueue(tenant, cost))
				tenants = append(tenants, tenant)
				waiting = append(waiting, id)
				m.cost[id] = cost
				if len(m.queue[tenant]) == 0 {
					m.ring = append(m.ring, tenant)
				}
				m.queue[tenant] = append(m.queue[tenant], id)
				check(step, "acquire", m.grant())
			case r < 85 && len(held) > 0:
				k := rng.Intn(len(held))
				held = slices.Delete(held, k, k+1)
				g.release()
				m.free++
				check(step, "release", m.grant())
			case len(waiting) > 0 && (r < 95 || len(held) == 0):
				id := waiting[rng.Intn(len(waiting))]
				waiting = slices.DeleteFunc(waiting, func(w int) bool { return w == id })
				g.leave(claims[id])
				tenant := tenants[id]
				m.queue[tenant] = slices.DeleteFunc(m.queue[tenant], func(q int) bool { return q == id })
				if len(m.queue[tenant]) == 0 {
					m.drop(tenant)
				}
				leaves++
				check(step, "cancel waiting", nil)
			default:
				k := rng.Intn(len(held))
				id := held[k]
				if claims[id] == nil {
					continue // granted as it was queued: no claim to withdraw
				}
				held = slices.Delete(held, k, k+1)
				g.leave(claims[id]) // its context ended after the grant
				m.free++
				check(step, "cancel held", m.grant())
			}
		}
		t.Logf("seed %d, %d slots: %d claims, %d granted; %d stalls, %d rotations", seed, slots, len(claims), len(order), m.stalls, m.rotations)
		stalls += m.stalls
		rotations += m.rotations
	}
	for what, n := range map[string]int{"stalls on slots": stalls, "rotations past a costly head": rotations, "waiting claims cancelled": leaves} {
		if n == 0 {
			t.Errorf("the sequences exercised no %s", what)
		}
	}
}

// blockingRunner answers each call once the test releases it (or its
// context ends), announcing every call with the tenant that made it.
type blockingRunner struct {
	calls   chan string
	release chan struct{}
}

func (b *blockingRunner) RunShards(ctx context.Context, specs []ShardSpec) ([]Outcome, error) {
	tenant, _ := ctx.Value(tenantKey{}).(string)
	b.calls <- tenant
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([]Outcome, len(specs))
	for i, sp := range specs {
		cfg, err := sp.Config()
		if err != nil {
			return nil, err
		}
		out[i] = Outcome{Shard: Shard{Workload: sp.Workload, Seed: sp.Seed, Observer: cfg.Key()}, Attempts: 1}
	}
	return out, nil
}

// seedsFrom is a spec of n one-shard coordinates, seeds from first on.
func seedsFrom(first uint64, n int) *Spec {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = first + uint64(i)
	}
	return &Spec{Workloads: []string{"comd-lite"}, Seeds: seeds, Insts: 1000, Observers: []ObserverSpec{{Kind: "bbl"}}}
}

// TestGateFairnessAcrossTenants is the fairness scenario: on a one-slot
// session behind a blocking runner, tenant a has two runs of 128 one-shard
// units waiting when tenant b's one-unit run arrives; b's unit must be
// granted within a's first quantum, not behind all 256 of a's units. The
// test releases the runner one call at a time and waits on the gate's
// waiter count; it never sleeps.
func TestGateFairnessAcrossTenants(t *testing.T) {
	sess := NewSession(1)
	r := &blockingRunner{calls: make(chan string), release: make(chan struct{})}
	sess.SetRunner(r)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 3)
	run := func(tenant string, spec *Spec) {
		_, err := sess.Run(WithTenant(ctx, tenant), spec)
		errs <- err
	}
	go run("a", seedsFrom(1, 128))
	if got := <-r.calls; got != "a" {
		t.Fatalf("first call from tenant %q, want a", got)
	}
	go run("a", seedsFrom(1001, 128))
	awaitWaiting(t, sess, 1)
	go run("b", seedsFrom(1, 1))
	awaitWaiting(t, sess, 2)

	aFirst := 1 // a's units granted before b's
	for {
		r.release <- struct{}{}
		if got := <-r.calls; got == "b" {
			break
		}
		if aFirst++; aFirst > 256 {
			t.Fatal("b's unit was never granted")
		}
	}
	t.Logf("b's unit granted after %d of a's", aFirst)
	if aFirst > quantum {
		t.Errorf("b's unit granted after %d of a's units, want at most one quantum (%d)", aFirst, quantum)
	}
	cancel()
	for range 3 {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("run after the cancel: %v, want context.Canceled", err)
		}
	}
	if g := sess.gate; g.free != 1 || g.waiting() != 0 {
		t.Errorf("gate after the runs: %d free, %d waiting; want 1 free, 0 waiting", g.free, g.waiting())
	}
}

// TestGateBacklogBound pins what a waiting run holds: n runs of 4,096
// shards on a cached one-slot session behind a blocking runner — one unit
// in the runner, every other run waiting at the gate with its grid
// expanded, its keys led and its units planned — hold at most 1 KiB of
// heap per shard after a GC, and at most n × (workers + 1) goroutines
// beyond the baseline (each Run's caller and its one pool goroutine), plus
// two. Not parallel: it reads the process's heap and goroutine counts.
func TestGateBacklogBound(t *testing.T) {
	const n, shards, perShard = 4, 4096, 1024
	sess := newCachedSession(t, 1, "")
	r := &blockingRunner{calls: make(chan string, 1), release: make(chan struct{})}
	sess.SetRunner(r)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	errs := make(chan error, n)
	for i := range n {
		// Disjoint seeds, so no run waits on another's cache leads.
		go func() {
			_, err := sess.Run(WithTenant(ctx, fmt.Sprint("t", i)), seedsFrom(uint64(i*shards+1), shards))
			errs <- err
		}()
	}
	<-r.calls
	awaitWaiting(t, sess, n-1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perWaiting := float64(held) / (n * shards)
	live := runtime.NumGoroutine() - goroutines
	t.Logf("%d runs of %d shards: %.0f B of heap per shard, %d goroutines", n, shards, perWaiting, live)
	if perWaiting > perShard {
		t.Errorf("%.0f B of heap per waiting shard, want at most %d", perWaiting, perShard)
	}
	if bound := n*(1+1) + 2; live > bound {
		t.Errorf("%d goroutines beyond the baseline, want at most %d", live, bound)
	}
	cancel()
	for range n {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("run after the cancel: %v, want context.Canceled", err)
		}
	}
}
