// Package clock is the one seam through which the dispatch and sweep
// policies read and wait on time: Real is the time package, and Virtual
// moves only when a test moves it, so a schedule is pinned, not raced.
package clock

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock is what the policies ask of time; WithTimeout is context.WithTimeout on it.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) *Timer
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Timer is a one-shot timer: C receives once, d after NewTimer, unless Stop came first.
type Timer struct {
	C    <-chan time.Time
	Stop func()
}

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }

func (Real) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, Stop: func() { t.Stop() }}
}

func (Real) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// Virtual is a Clock that stands still until Advance moves it. Its timeout
// contexts report no Deadline, which net/http's dialer would read as wall time.
type Virtual struct {
	// Auto moves the clock to each timer as it is armed, so a test that pins
	// no schedule sleeps through backoffs and hedge delays in no wall time.
	// A timeout still waits for Advance: every backend call arms one.
	Auto bool

	mu      sync.Mutex
	now     time.Time
	pending map[*event]struct{}
}

type event struct {
	at   time.Time
	fire func(at time.Time)
}

// NewVirtual returns a Virtual clock reading a fixed instant.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC), pending: map[*event]struct{}{}}
}

func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

func (v *Virtual) NewTimer(d time.Duration) *Timer {
	c := make(chan time.Time, 1)
	return &Timer{C: c, Stop: v.schedule(d, v.Auto, func(at time.Time) { c <- at })}
}

func (v *Virtual) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancelCause(ctx)
	stop := v.schedule(d, false, func(time.Time) { cancel(context.DeadlineExceeded) })
	return timeoutCtx{inner}, func() { stop(); cancel(nil) }
}

// timeoutCtx ends with context.DeadlineExceeded, as context.WithTimeout's do.
type timeoutCtx struct{ context.Context }

func (c timeoutCtx) Err() error {
	if context.Cause(c.Context) == context.DeadlineExceeded {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

// schedule arms fire at now+d, jumping the clock there if asked, and returns its disarm.
func (v *Virtual) schedule(d time.Duration, jump bool, fire func(time.Time)) func() {
	v.mu.Lock()
	e := &event{at: v.now.Add(d), fire: fire}
	v.pending[e] = struct{}{}
	if jump {
		v.advanceLocked(e.at)
	} else {
		v.advanceLocked(v.now) // fires e at once when d <= 0
	}
	return func() {
		v.mu.Lock()
		delete(v.pending, e)
		v.mu.Unlock()
	}
}

// Advance moves the clock forward by d, firing in due order whatever falls due.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceLocked(v.now.Add(d))
}

// advanceLocked is Advance to t; it is called with mu held and releases it.
func (v *Virtual) advanceLocked(t time.Time) {
	if t.After(v.now) {
		v.now = t
	}
	var due []*event
	for e := range v.pending {
		if !e.at.After(v.now) {
			due = append(due, e)
			delete(v.pending, e)
		}
	}
	v.mu.Unlock()
	sort.Slice(due, func(a, b int) bool { return due[a].at.Before(due[b].at) })
	for _, e := range due {
		e.fire(e.at)
	}
}
