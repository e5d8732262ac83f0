// Package shardcache is the content-addressed result cache for shard
// execution: internal/tiercache instantiated over stored records, each the
// encoded wire record of one shard plus the value its first reader decoded
// it to. Shard results are deterministic for their canonical key (see
// sim.ShardSpec.CacheKey), self-describing, and byte-exactly
// round-trippable over the wire contract, which is what makes caching the
// encoded wire record safe: serving a cached entry is indistinguishable —
// up to timing fields — from recomputing the shard. The caller owns
// encoding and decoding, so the package sits below both the sim session
// and the dispatch layer.
package shardcache

import (
	"context"
	"sync"

	"rebalance/internal/tiercache"
)

// Options and Stats are the tiered cache's. A zero MaxEntries selects 4096
// and a zero MaxBytes 256 MiB (a shard record is a few KB). MaxBytes bounds
// stored bytes; a record's decoded form counts against MaxEntries only.
// That form, the decoded shard plus its result's artifact, is at most
// k = 20 bytes per stored byte — the first hit's whole allocation, footprint
// the worst kind at ≈ 18.5 — so a cache at MaxBytes holds at most
// (1 + k)·MaxBytes (sim's TestDecodedRecordWithinBound).
type (
	Options = tiercache.Options
	Stats   = tiercache.Stats
)

// Record is one stored shard record. Its bytes never change; its decoded
// form is what the first Decoded call made of them, shared by every later
// hit on the record, so a warm memory tier decodes each record once. A Put,
// an eviction or a disk promotion starts a new, undecoded record.
type Record struct {
	data    []byte
	once    sync.Once
	decoded any
	err     error
}

// Decoded returns decode of the record's bytes, run by the first call only;
// every later call, concurrent ones waiting for it, shares its outcome.
func (r *Record) Decoded(decode func(data []byte) (any, error)) (any, error) {
	r.once.Do(func() { r.decoded, r.err = decode(r.data) })
	return r.decoded, r.err
}

// codec stores and charges a record as its bytes; a disk read is a new record.
type codec struct{}

func (codec) Size(r *Record) int64                { return int64(len(r.data)) }
func (codec) Encode(r *Record) []byte             { return r.data }
func (codec) Decode(data []byte) (*Record, error) { return &Record{data: data}, nil }

// Cache is the tiered cache over records: Get, Put, Remove, Stats and Do
// are tiercache's over the stored bytes; Lead hands the session the record.
type Cache struct{ tc *tiercache.Cache[*Record] }

// New returns a result cache with the given options, defaults applied.
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	tc, err := tiercache.New[*Record](codec{}, opts)
	if err != nil {
		return nil, err
	}
	return &Cache{tc}, nil
}

func (c *Cache) Get(key string) ([]byte, bool) {
	if r, ok := c.tc.Get(key); ok {
		return r.data, true
	}
	return nil, false
}

func (c *Cache) Put(key string, data []byte) { c.tc.Put(key, &Record{data: data}) }
func (c *Cache) Remove(key string)           { c.tc.Remove(key) }
func (c *Cache) Stats() Stats                { return c.tc.Stats() }

func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	r, hit, err := c.tc.Do(ctx, key, func() (*Record, error) {
		data, err := compute()
		return &Record{data: data}, err
	})
	if err != nil {
		return nil, false, err
	}
	return r.data, hit, nil
}

// Lead is tiercache's Lead over records: a hit hands back the stored record,
// and a miss elects the caller to land the bytes it computes (or its error).
func (c *Cache) Lead(ctx context.Context, key string) (rec *Record, hit bool, land func([]byte, error), err error) {
	rec, hit, landRec, err := c.tc.Lead(ctx, key)
	if err != nil || hit {
		return rec, hit, nil, err
	}
	return nil, false, func(data []byte, err error) { landRec(&Record{data: data}, err) }, nil
}
