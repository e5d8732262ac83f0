package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload/synth"
)

// cacheKeyVersion prefixes every canonical shard key. Bump it whenever
// the canonical form below, the wire encoding of results, or simulator
// semantics change in a way that makes old cached records stale — old
// entries then simply stop matching instead of serving wrong data.
//
// sc1 -> sc2: the canonical spec grew the inline synth/v1 parameter set.
// The version bump guarantees records written by sc1 builds (which could
// not distinguish a synth scenario from a built-in workload of the same
// name) can never alias an sc2 shard in a shared cache directory, and
// vice versa — the prefixes differ, so the key spaces are disjoint by
// construction.
const cacheKeyVersion = "sc2"

// CacheKey returns the shard's content address: a versioned hash of the
// canonicalized spec {workload, synth-params, seed, insts, engine,
// observer}. Two specs get the same key exactly when they denote the same
// deterministic computation: the engine default is applied, the observer
// is re-described through its expanded configuration (cfg.Spec()), and
// inline synth params are canonicalized (defaults made explicit), so
// spelling differences in the request JSON — field order, engine omitted
// versus explicit, defaulted versus explicit knobs — collapse to one key,
// while every knob that changes the generated program changes the key.
// Invalid specs report ErrInvalidSpec.
func (sp ShardSpec) CacheKey() (string, error) {
	cfg, err := sp.Config()
	if err != nil {
		return "", err
	}
	return ShardCacheKey(sp, cfg), nil
}

// ShardCacheKey is CacheKey for callers that already expanded the spec's
// observer configuration (and thereby validated the spec), sparing a
// second expansion. It appends, in one pass, the bytes json.Marshal writes
// for the canonical ShardSpec (cache_test.go holds it to that oracle).
func ShardCacheKey(sp ShardSpec, cfg ObserverConfig) string {
	engine, obs := sp.Engine, cfg.Spec()
	if engine == "" {
		engine = EngineCompiled
	}
	b := appendCoord(make([]byte, 0, 256), sp.Workload, sp.Synth, sp.Seed, sp.Insts)
	b = appendString(append(b, `,"engine":`...), engine)
	b = appendString(append(b, `,"observer":{"kind":`...), obs.Kind)
	if len(obs.Options) > 0 {
		b = appendRaw(append(b, `,"options":`...), obs.Options)
	}
	return contentKey(cacheKeyVersion, append(b, "}}"...))
}

// contentKey is the one content-address recipe, shared by the sc2- shard
// keys and the tr1- trace keys: the version, then the hex SHA-256 of the
// canonical form's JSON.
func contentKey(version string, canon []byte) string {
	sum := sha256.Sum256(canon)
	return version + "-" + hex.EncodeToString(sum[:])
}

// appendCoord opens both canonical forms: {workload, synth (absent for a
// built-in workload; its CanonicalJSON, which json.Marshal still writes,
// as no benchmarked grid is synthetic), seed, insts.
func appendCoord(b []byte, workload string, p *synth.Params, seed uint64, insts int64) []byte {
	b = appendString(append(b, `{"workload":`...), workload)
	if p != nil {
		canon, err := p.CanonicalJSON()
		if err != nil {
			panic(fmt.Sprintf("sim: canonicalizing validated synth params: %v", err))
		}
		b = append(append(b, `,"synth":`...), canon...)
	}
	b = strconv.AppendUint(append(b, `,"seed":`...), seed, 10)
	return strconv.AppendInt(append(b, `,"insts":`...), insts, 10)
}

// appendRaw appends JSON as encoding/json writes a RawMessage: compacted,
// HTML characters escaped. Plain printable ASCII without spaces — every
// built-in kind's options — is that already; the rest is json.Marshal's.
func appendRaw(b, raw []byte) []byte {
	for _, c := range raw {
		if c <= ' ' || c >= utf8.RuneSelf || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(json.RawMessage(raw))
			if err != nil {
				panic(fmt.Sprintf("sim: observer options are not JSON: %v", err))
			}
			return append(b, enc...)
		}
	}
	return append(b, raw...)
}

// SetCache routes every shard this session resolves — the grids it runs,
// on its local pool or through its runner, and arrays off the worker
// protocol alike — through the given result cache: a shard whose canonical
// key is cached is served from the stored wire record instead of computed,
// and concurrent identical shards are deduplicated to one compute (see
// resolveShard). A nil c (the default) disables caching. Set before the
// first Run; the field is not synchronized against concurrent Runs.
//
// A cache serves the grid's owner: a runner beneath a caching session must
// not share that session's cache. The session leads a miss's key until its
// runner answers, so a second session beneath it (a LocalBackend's) asking
// the same cache for that key waits on its own caller's lead until the
// attempt deadline fails it. Give a worker its own cache, or none.
func (s *Session) SetCache(c *shardcache.Cache) { s.cache = c }

// Cache returns the session's result cache, or nil.
func (s *Session) Cache() *shardcache.Cache { return s.cache }

// SetTraceStore routes every shard this session computes through the
// given materialized-trace store: the first group of a (workload, seed,
// insts) coordinate generates the instruction stream once and records it;
// every other shard of the coordinate — other observers, concurrent or
// later — replays the recording instead of regenerating it (see
// Session.stream for why the two are bit-identical). The recording is the
// stream's trr1 encoding, ≈ 2.5 bytes per instruction resident, decoded a
// batch at a time while it replays — so a replay costs about what a
// generation pass does and saves the executor's work, not memory traffic.
// A nil st (the default) disables replay. Set before the first Run; the field is not
// synchronized against concurrent Runs.
//
// The trace store composes with the shard result cache (SetCache): the
// result cache short-circuits whole shards, and only the shards it misses
// reach the trace store. A multi-observer sweep with both warm costs no
// generation at all.
//
// No entrypoint serves a store: this package's tests and bench's
// mixed9-replay-* workloads and replay.* layer rows are the callers, and
// each reads the store it built.
func (s *Session) SetTraceStore(st *replay.Store) { s.traces = st }

// resolveShard is the result-cache protocol for one key, behind runGrid's
// resolve step. It serves the shard stored under key (hit) or elects the
// caller to compute it, handing back land, which the caller must call
// exactly once with the outcome: a
// computed shard is written back as its canonical cold record (Cached
// stripped, so stored bytes are identical whichever tier produced them),
// a failure releases the key. Concurrent callers for one key are
// deduplicated to one compute (the cache's singleflight), the followers
// served as hits; err is only ever the follower's own cancelled context.
//
// A record's first hit decodes it through the same DecodeShard path remote
// results take, so a cached shard is bit-identical, up to timing fields and
// the Cached mark, to a cold one, and encodes its result's artifact beside
// it; every later hit on the record shares both, and still checks the shard
// against its own cell. A stored record that no longer decodes (e.g.
// written by an incompatible build) must degrade to a recompute, never fail
// the run: the entry is dropped and the key re-entered. A second decode
// failure means the cache is being poisoned faster than it can be cleared
// (a shared disk dir and a writer on different semantics) — the caller then
// computes with the cache left out of it. An encoding failure leaves the
// cache unpopulated; the computed shard is still good.
func resolveShard(ctx context.Context, cache *shardcache.Cache, key string, spec ShardSpec, cfg ObserverConfig) (sh Shard, hit bool, land func(Shard, error), err error) {
	for attempt := 0; attempt < 2; attempt++ {
		rec, hit, finish, err := cache.Lead(ctx, key)
		if err != nil {
			return Shard{}, false, nil, err
		}
		if !hit {
			return Shard{}, false, func(sh Shard, err error) {
				var data []byte
				if err == nil {
					sh.Cached = false
					data, err = EncodeShard(sh)
				}
				finish(data, err)
			}, nil
		}
		v, err := rec.Decoded(func(data []byte) (any, error) {
			sh, err := DecodeShard(data, spec, cfg)
			if err == nil {
				sh.keepArtifact()
			}
			return sh, err
		})
		if sh := v.(Shard); err == nil && sh.matches(spec, cfg) == nil {
			sh.Cached = true
			return sh, true, nil, nil
		}
		cache.Remove(key)
	}
	return Shard{}, false, func(Shard, error) {}, nil
}
