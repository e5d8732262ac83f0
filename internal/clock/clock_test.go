package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fired reports whether c has received, without waiting.
func fired(c <-chan time.Time) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestVirtualTimersFireAtTheirInstant: a timer fires when Advance reaches
// its due instant and not a nanosecond before, receiving that instant; a
// stopped timer never fires; a non-positive duration fires at once.
func TestVirtualTimersFireAtTheirInstant(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	a, b, stopped := v.NewTimer(10*time.Millisecond), v.NewTimer(20*time.Millisecond), v.NewTimer(5*time.Millisecond)
	stopped.Stop()
	v.Advance(10*time.Millisecond - time.Nanosecond)
	if fired(a.C) || fired(b.C) || fired(stopped.C) {
		t.Fatal("a timer fired before its instant")
	}
	v.Advance(time.Nanosecond)
	select {
	case at := <-a.C:
		if at.Sub(start) != 10*time.Millisecond {
			t.Errorf("timer received %v after start, want 10ms", at.Sub(start))
		}
	default:
		t.Fatal("timer did not fire at its instant")
	}
	v.Advance(time.Hour)
	if !fired(b.C) || fired(stopped.C) {
		t.Error("want the pending timer fired and the stopped one silent")
	}
	if !fired(v.NewTimer(0).C) {
		t.Error("a zero-duration timer did not fire at once")
	}
	if got := v.Now().Sub(start); got != time.Hour+10*time.Millisecond {
		t.Errorf("clock moved %v, want the 1h10ms it was advanced", got)
	}
}

// TestVirtualTimeout: a timeout context carries no Deadline, is live until
// the clock reaches it, then ends with context.DeadlineExceeded; cancelled
// first, it ends with context.Canceled, and a parent's cancellation reaches
// it.
func TestVirtualTimeout(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := v.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("a virtual timeout reports a wall-clock Deadline")
	}
	v.Advance(time.Second - time.Nanosecond)
	if ctx.Err() != nil {
		t.Fatalf("ended %v before its timeout", ctx.Err())
	}
	v.Advance(time.Nanosecond)
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("at its timeout: err = %v, want context.DeadlineExceeded", err)
	}

	early, cancelEarly := v.WithTimeout(context.Background(), time.Second)
	cancelEarly()
	v.Advance(time.Hour)
	if err := early.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled before its timeout: err = %v, want context.Canceled", err)
	}

	parent, cancelParent := context.WithCancel(context.Background())
	child, cancelChild := v.WithTimeout(parent, time.Second)
	defer cancelChild()
	cancelParent()
	<-child.Done()
	if err := child.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("under a cancelled parent: err = %v, want context.Canceled", err)
	}
}

// TestVirtualAuto: with Auto set, arming a timer moves the clock to it and
// fires it, and any timeout it passes ends on the way; a timeout alone
// never moves the clock.
func TestVirtualAuto(t *testing.T) {
	v := NewVirtual()
	v.Auto = true
	start := v.Now()
	ctx, cancel := v.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if v.Now() != start {
		t.Fatal("arming a timeout moved the clock")
	}
	if !fired(v.NewTimer(20 * time.Millisecond).C) {
		t.Fatal("an Auto timer did not fire as it was armed")
	}
	if ctx.Err() != nil || v.Now().Sub(start) != 20*time.Millisecond {
		t.Fatalf("after a 20ms timer: clock at +%v, timeout err %v; want +20ms and live", v.Now().Sub(start), ctx.Err())
	}
	v.NewTimer(20 * time.Millisecond)
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("a timer past the timeout left it %v, want context.DeadlineExceeded", err)
	}
}
