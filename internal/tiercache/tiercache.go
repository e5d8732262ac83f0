// Package tiercache is the repository's one content-addressed cache: a
// bounded LRU memory tier over an optional checksummed disk tier, with
// singleflight deduplication of concurrent computes. It is generic over
// the value type; a Codec says how a value is sized in memory and how it
// crosses the disk boundary. The two instantiations are
// internal/sim/shardcache (shard records, decoded on first use) and
// internal/trace/replay's Store (materialized traces, trr1 codec).
//
// Every cached value is a pure function of its key (callers key by a
// versioned hash of everything that determines the value), which is what
// makes serving a stored entry indistinguishable from recomputing it and
// makes concurrent writers of one key idempotent.
//
// The memory tier is bounded by entry count and by the codec's Size (what
// a value holds beyond it, as a shard record's decoded form, by the count
// alone). The disk tier keeps one file per key — sha256(payload) followed
// by the codec's payload — written atomically (temp file + rename), so a
// torn, truncated, bit-rotted or undecodable file degrades to a
// self-deleting miss instead of poisoning a run. The package depends only
// on the standard library.
package tiercache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Codec adapts a value type to the cache. Size is the value's memory-tier
// charge in bytes. Encode and Decode are the disk tier's payload format;
// Decode must reject anything Encode could not have produced, because a
// payload that passes its checksum but fails Decode is treated as a
// corrupt entry (deleted, reported as a miss). The decoded value may retain
// data: the cache hands Decode a buffer it never touches again.
type Codec[V any] interface {
	Size(v V) int64
	Encode(v V) []byte
	Decode(data []byte) (V, error)
}

// Options bound a Cache. Instantiating packages fill in their own defaults
// for the two bounds; New itself requires both to be positive.
type Options struct {
	// MaxEntries bounds the memory tier's entry count.
	MaxEntries int
	// MaxBytes bounds the memory tier's total Codec.Size. A single value
	// larger than the bound bypasses the memory tier but is still written
	// to disk.
	MaxBytes int64
	// Dir enables the disk tier: one file per key under this directory,
	// created if needed. Empty disables the tier. The disk tier is not
	// size-bounded — entries are only removed when they go corrupt or a
	// caller calls Remove — so point it at storage sized for the key
	// universe being served.
	Dir string
}

// Stats is a snapshot of a cache's counters. Hits counts every request
// served without a fresh compute — memory, disk, and singleflight
// followers alike; DiskHits is the subset promoted from the disk tier.
// Bytes is the memory tier's resident size per Codec.Size.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	DiskHits  int64 `json:"disk_hits"`
}

// Cache is a bounded, two-tier, singleflight-deduplicating cache. Safe for
// concurrent use. Cached values are shared between callers and must be
// treated as immutable.
type Cache[V any] struct {
	codec Codec[V]
	opts  Options

	mu       sync.Mutex
	lru      *list.List // front = most recently used; element values are *entry[V]
	byKey    map[string]*list.Element
	bytes    int64
	inflight map[string]*flight[V]
	stats    Stats
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// flight is one in-progress compute; followers block on done and read
// val/err, which the leader sets before closing the channel.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache over codec. The disk directory, if any, is created
// eagerly so a misconfigured path fails at startup rather than as silent
// per-entry write errors, and temp files orphaned by a crash mid-write are
// swept (completed entries were renamed into place and are untouched).
func New[V any](codec Codec[V], opts Options) (*Cache[V], error) {
	if opts.MaxEntries <= 0 || opts.MaxBytes <= 0 {
		return nil, fmt.Errorf("tiercache: non-positive bounds (%d entries, %d bytes)", opts.MaxEntries, opts.MaxBytes)
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("tiercache: creating %s: %w", opts.Dir, err)
		}
		if ents, err := os.ReadDir(opts.Dir); err == nil {
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					_ = os.Remove(filepath.Join(opts.Dir, e.Name()))
				}
			}
		}
	}
	return &Cache[V]{
		codec:    codec,
		opts:     opts,
		lru:      list.New(),
		byKey:    map[string]*list.Element{},
		inflight: map[string]*flight[V]{},
	}, nil
}

// validKey guards the disk tier against keys that could escape Dir or
// collide with temp files. Canonical keys (version prefix + hex digest)
// always pass.
func validKey(key string) bool {
	return key != "" && !strings.ContainsAny(key, "/\\") && key != "." && key != ".." && !strings.HasSuffix(key, ".tmp")
}

// Get returns the cached value for key, consulting memory then disk. A
// disk hit is promoted into the memory tier.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	if val, ok := c.memGetLocked(key); ok {
		c.stats.Hits++
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	val, ok := c.readDisk(key)
	c.mu.Lock()
	if ok {
		c.stats.Hits++
		c.stats.DiskHits++
		c.insertLocked(key, val)
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	return val, ok
}

// Put stores a value computed elsewhere in both tiers. Re-putting an
// existing key replaces its value.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
	c.writeDisk(key, val)
}

// Remove drops key from both tiers — the recovery path for an entry whose
// value turns out to be unusable at a higher layer.
func (c *Cache[V]) Remove(key string) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el, false)
	}
	c.mu.Unlock()
	if c.opts.Dir != "" && validKey(key) {
		_ = os.Remove(filepath.Join(c.opts.Dir, key))
	}
}

// Do returns the cached value for key, computing it at most once across
// concurrent callers: the first caller (the leader) checks the disk tier
// and then runs compute; followers arriving while the leader is in flight
// block and share its result. hit reports whether the value was served
// without running compute in this call.
//
// Callers stay independent: a follower waits under its own ctx and
// returns ctx.Err() promptly when it is cancelled, and a leader's failure
// (including its own cancelled context) is never adopted by followers —
// they re-enter and one of them leads a fresh compute under its own
// context. A compute error is returned only to the caller whose compute
// it was, and nothing is cached for it.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (val V, hit bool, err error) {
	val, hit, land, err := c.Lead(ctx, key)
	if err != nil || hit {
		return val, hit, err
	}
	val, err = compute()
	land(val, err)
	if err != nil {
		var zero V
		return zero, false, err
	}
	return val, false, nil
}

// Lead is Do with the compute handed to the caller: it either serves key
// (hit) or elects the caller leader of key's flight and returns land, which
// the leader must call exactly once with its outcome — every follower of
// the key blocks until it does. Callers that lead several keys at once
// must acquire them in one global order (ascending key) so two such
// callers cannot wait on each other.
func (c *Cache[V]) Lead(ctx context.Context, key string) (val V, hit bool, land func(V, error), err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		c.mu.Lock()
		if val, ok := c.memGetLocked(key); ok {
			c.stats.Hits++
			c.mu.Unlock()
			return val, true, nil, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return val, false, nil, ctx.Err()
			}
			if f.err != nil {
				// The leader failed on its own terms — possibly its own
				// cancelled context, which says nothing about this caller's
				// request. Re-enter: either a newer leader's result shows
				// up, or this caller becomes the leader itself.
				continue
			}
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			return f.val, true, nil, nil
		}
		f := &flight[V]{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		if val, ok := c.readDisk(key); ok {
			c.land(key, f, val, nil, true)
			return val, true, nil, nil
		}
		return val, false, func(val V, err error) {
			c.land(key, f, val, err, false)
			if err == nil {
				c.writeDisk(key, val)
			}
		}, nil
	}
}

// land completes key's flight: account the outcome, admit a successful
// value to the memory tier, and release the followers.
func (c *Cache[V]) land(key string, f *flight[V], val V, err error, fromDisk bool) {
	c.mu.Lock()
	delete(c.inflight, key)
	if fromDisk {
		c.stats.Hits++
		c.stats.DiskHits++
	} else {
		c.stats.Misses++
	}
	if err == nil {
		c.insertLocked(key, val)
	}
	c.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	return s
}

// memGetLocked looks key up in the memory tier, refreshing its recency.
func (c *Cache[V]) memGetLocked(key string) (val V, ok bool) {
	el, ok := c.byKey[key]
	if !ok {
		return val, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// insertLocked adds or replaces key in the memory tier and evicts from
// the cold end until the bounds hold again. An oversized value is not
// admitted (it would evict the whole tier for one entry).
func (c *Cache[V]) insertLocked(key string, val V) {
	size := c.codec.Size(val)
	el, resident := c.byKey[key]
	if size > c.opts.MaxBytes {
		// Not admissible — and if the key is resident, its now-stale value
		// must go too, or Get would keep serving the superseded value.
		if resident {
			c.removeLocked(el, false)
		}
		return
	}
	if resident {
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.lru.MoveToFront(el)
	} else {
		c.byKey[key] = c.lru.PushFront(&entry[V]{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.lru.Len() > c.opts.MaxEntries || c.bytes > c.opts.MaxBytes {
		oldest := c.lru.Back()
		if oldest == nil || oldest == c.lru.Front() {
			break
		}
		c.removeLocked(oldest, true)
	}
}

func (c *Cache[V]) removeLocked(el *list.Element, evicted bool) {
	e := el.Value.(*entry[V])
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.size
	if evicted {
		c.stats.Evictions++
	}
}

// Disk tier file format: sha256(payload) followed by the payload. The
// checksum turns any torn write, truncation, or bit rot into a miss.
const diskSumLen = sha256.Size

// readDisk loads, verifies and decodes key's file; a corrupt entry —
// failing either the checksum or the codec's strict decode — is deleted
// and reported as a miss, so a damaged or incompatible file degrades to a
// recompute, never a wrong value.
func (c *Cache[V]) readDisk(key string) (val V, ok bool) {
	if c.opts.Dir == "" || !validKey(key) {
		return val, false
	}
	path := filepath.Join(c.opts.Dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		return val, false
	}
	if len(data) >= diskSumLen && sha256.Sum256(data[diskSumLen:]) == [diskSumLen]byte(data[:diskSumLen]) {
		if val, err = c.codec.Decode(data[diskSumLen:]); err == nil {
			return val, true
		}
	}
	_ = os.Remove(path)
	var zero V
	return zero, false
}

// writeDisk stores key's value atomically: write a temp file in the same
// directory, then rename over the final name, so readers only ever see a
// complete file. Write failures are silent — the disk tier is an
// accelerator, never a correctness dependency.
func (c *Cache[V]) writeDisk(key string, val V) {
	if c.opts.Dir == "" || !validKey(key) {
		return
	}
	payload := c.codec.Encode(val)
	tmp, err := os.CreateTemp(c.opts.Dir, key+"-*.tmp")
	if err != nil {
		return
	}
	sum := sha256.Sum256(payload)
	_, werr := tmp.Write(sum[:])
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	cerr := tmp.Close()
	if werr == nil && cerr == nil && os.Rename(tmp.Name(), filepath.Join(c.opts.Dir, key)) == nil {
		return
	}
	_ = os.Remove(tmp.Name())
}
