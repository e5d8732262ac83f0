// Package shardcache is the content-addressed result cache for shard
// execution: internal/tiercache instantiated over opaque bytes. Shard
// results are deterministic for their canonical key (see
// sim.ShardSpec.CacheKey), self-describing, and byte-exactly
// round-trippable over the wire contract, which is what makes caching the
// encoded wire record safe: serving a cached entry is indistinguishable —
// up to timing fields — from recomputing the shard. The caller owns
// encoding and decoding, so the package sits below both the sim session
// and the dispatch layer.
package shardcache

import "rebalance/internal/tiercache"

// Options, Stats and Cache are the tiered cache's, fixed to encoded shard
// records under the identity codec (tiercache.Bytes). A zero MaxEntries selects 4096 and a zero MaxBytes 256 MiB (a
// shard record is a few KB).
type (
	Options = tiercache.Options
	Stats   = tiercache.Stats
	Cache   = tiercache.Cache[[]byte]
)

// New returns a result cache with the given options, defaults applied.
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	return tiercache.New[[]byte](tiercache.Bytes{}, opts)
}
