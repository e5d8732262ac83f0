package sim

import (
	"context"
	"errors"
)

// ShardDoneFunc observes one shard of a run reaching a terminal outcome:
// computed, served from a cache, or abandoned with a terminal error (in
// a strict run the first such outcome is the last one delivered: the
// session cancels the rest of the grid). It receives the completed shard
// (zero-valued when err is non-nil) and must be safe for concurrent
// calls: the session delivers completions from multiple worker goroutines
// at once.
type ShardDoneFunc func(sh Shard, err error)

// shardDoneKey is the context key WithShardDone stores the hook under.
type shardDoneKey struct{}

// WithShardDone returns a context that delivers every terminal shard
// outcome of runs executed under it to fn. The hook is observational
// only: it changes no report bytes, and a run executed with or without it
// produces byte-identical output. Shards skipped because the run was
// cancelled are not delivered — they have no outcome, terminal or
// otherwise. A nil fn returns ctx unchanged.
//
// This is the seam a sweep coordinator hangs live progress on: the session
// that owns the grid delivers every outcome, computed locally, through its
// runner or from its result cache.
func WithShardDone(ctx context.Context, fn ShardDoneFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, shardDoneKey{}, fn)
}

// ShardDone invokes ctx's shard-completion hook, if any. The session calls
// it for every shard of a grid it owns; it is exported for hooks that
// chain to the one they wrap. Callers deliver each shard's outcome exactly
// once. An outcome that is a context error is dropped here: the pass was
// cancelled and the shard skipped, not completed. That is a filter on what
// progress reports, not a verdict on the run — runGrid reads that off the
// run's own context.
func ShardDone(ctx context.Context, sh Shard, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	if fn, ok := ctx.Value(shardDoneKey{}).(ShardDoneFunc); ok {
		fn(sh, err)
	}
}
