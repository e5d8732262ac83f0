// Test fixture for the ctxpoll analyzer, loaded under
// rebalance/internal/tiercache: the singleflight follower loop must wait
// under the caller's context, not just on the leader's flight.
package tiercache

import "context"

type flight struct {
	done chan struct{}
	err  error
}

func next() *flight { return nil }

func followsBlind() {
	for { // want "infinite loop without a context poll"
		f := next()
		<-f.done
		if f.err == nil {
			return
		}
	}
}

func followsUnderContext(ctx context.Context) error {
	for {
		f := next()
		select {
		case <-f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if f.err == nil {
			return nil
		}
	}
}
