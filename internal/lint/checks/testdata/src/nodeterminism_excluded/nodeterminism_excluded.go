// Test fixture loaded under rebalance/internal/sim/dispatch, which
// schedules work in time (hedging, backoff, health probes): global rand
// and map order are its business, but every wall-clock read or wait must
// go through the clock seam.
package dispatch

import (
	"context"
	"math/rand"
	"time"
)

func timingIsTheJob(ctx context.Context, m map[string]int, now time.Time) time.Duration {
	jitter := time.Duration(rand.Int63n(1000))
	total := 0
	for _, v := range m {
		total += v
	}
	_ = total
	_ = now.After(now.Add(jitter))                // time.Time's After method reads no clock
	start := time.Now()                           // want "time.Now bypasses the clock seam"
	time.Sleep(jitter)                            // want "time.Sleep bypasses the clock seam"
	<-time.After(jitter)                          // want "time.After bypasses the clock seam"
	_, cancel := context.WithTimeout(ctx, jitter) // want "context.WithTimeout bypasses the clock seam"
	cancel()
	return time.Since(start) // want "time.Since bypasses the clock seam"
}
