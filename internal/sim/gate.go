package sim

import (
	"context"
	"slices"
	"sync"
)

// quantum is the gate's deficit round-robin credit per tenant visit, in
// shards: a unit costs its member count, so a costlier unit waits rounds.
const quantum = 64

// tenantKey is the context key WithTenant stores the tenant under.
type tenantKey struct{}

// WithTenant returns a context whose runs charge their units to tenant: a
// session's gate takes turns between the tenants waiting on it. A run under
// a context without one is tenant "".
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// gate is a session's one concurrency budget: a slot per worker, held by
// each unit runGrid computes — locally, through the runner or for
// RunShards — while it computes. Freed slots go to waiting units in deficit
// round-robin over tenants (Shreedhar & Varghese): a visit grants a tenant
// quantum credits, and its units take slots in FIFO order while the credit
// covers their cost. A tenant whose head unit costs more rotates to the
// back keeping its credit; one with nothing left waiting leaves the ring
// and forfeits it. A stall on slots leaves the front tenant charged where
// it is, to resume there. Slots are free only while nothing waits.
type gate struct {
	mu   sync.Mutex
	free int
	ring []*gateTenant // the tenants with a unit waiting, in visit order
}

type gateTenant struct {
	name    string
	waiting []*claim
	deficit int
	charged bool // granted its quantum for this visit
}

// claim is one unit's request for a slot; ready closes when it holds one.
type claim struct {
	tenant *gateTenant
	cost   int
	ready  chan struct{}
	held   bool
}

// acquire waits for a slot for a unit of cost members, charged to ctx's
// tenant. If ctx ends first the unit leaves holding nothing, and acquire
// returns ctx's error.
func (g *gate) acquire(ctx context.Context, cost int) error {
	tenant, _ := ctx.Value(tenantKey{}).(string)
	c := g.enqueue(tenant, cost)
	if c == nil {
		return nil
	}
	select {
	case <-c.ready:
		return nil
	case <-ctx.Done():
		g.leave(c)
		return ctx.Err()
	}
}

// enqueue takes a free slot at once, returning nil (a slot is free only
// while nothing waits), or else queues a claim behind its tenant's.
func (g *gate) enqueue(tenant string, cost int) *claim {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.free > 0 {
		g.free--
		return nil
	}
	i := slices.IndexFunc(g.ring, func(t *gateTenant) bool { return t.name == tenant })
	if i < 0 {
		i = len(g.ring)
		g.ring = append(g.ring, &gateTenant{name: tenant})
	}
	c := &claim{tenant: g.ring[i], cost: cost, ready: make(chan struct{})}
	c.tenant.waiting = append(c.tenant.waiting, c)
	return c
}

// leave withdraws a claim whose context ended: a waiting claim leaves its
// queue, and one granted meanwhile gives its slot back.
func (g *gate) leave(c *claim) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.held {
		g.free++
		g.grantLocked()
		return
	}
	t := c.tenant
	t.waiting = slices.DeleteFunc(t.waiting, func(w *claim) bool { return w == c })
	if len(t.waiting) == 0 { // t leaves the ring, and its credit with it
		g.ring = slices.DeleteFunc(g.ring, func(r *gateTenant) bool { return r == t })
	}
}

// release gives a held slot back.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.free++
	g.grantLocked()
}

// grantLocked runs the round-robin while a slot is free and a unit waits.
func (g *gate) grantLocked() {
	for g.free > 0 && len(g.ring) > 0 {
		t := g.ring[0]
		if !t.charged {
			t.deficit += quantum
			t.charged = true
		}
		for len(t.waiting) > 0 && g.free > 0 && t.waiting[0].cost <= t.deficit {
			c := t.waiting[0]
			t.waiting = t.waiting[1:]
			t.deficit -= c.cost
			g.free--
			c.held = true
			close(c.ready)
		}
		switch {
		case len(t.waiting) == 0:
			g.ring = g.ring[1:] // t leaves the ring, and its credit with it
		case g.free == 0:
			return
		default:
			t.charged = false
			g.ring = append(g.ring[1:], t)
		}
	}
}
