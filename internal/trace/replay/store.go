package replay

import "rebalance/internal/tiercache"

// Options, Stats and Store are the tiered cache's (internal/tiercache),
// fixed to materialized traces keyed by the canonical trace coordinate
// (see sim.ShardSpec.TraceKey): the memory tier holds *Trace values
// charged at Trace.MemBytes, the disk tier the same trr1 records behind a
// header. A cached Trace is immutable and may be replayed by any number
// of goroutines at once. The defaults are sized for traces, which are
// orders of magnitude larger than shard results — a 2M-instruction trace
// is ≈ 5 MiB in either tier, so the entry bound is the one that usually
// binds, and a 100M-instruction one ≈ 250 MiB, still admissible: a zero
// MaxEntries selects 64 and a zero MaxBytes 1 GiB.
type (
	Options = tiercache.Options
	Stats   = tiercache.Stats
	Store   = tiercache.Cache[*Trace]
)

// New returns a trace store with the given options, defaults applied.
func New(opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 64
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 1 << 30
	}
	return tiercache.New[*Trace](traceCodec{}, opts)
}

// traceCodec stores traces as trr1 payloads; Decode is strict, so a file
// that passes its checksum but is not a well-formed trr1 stream is a
// self-deleting miss rather than a wrong replay. A disk hit's Trace is the
// file's bytes, validated in place.
type traceCodec struct{}

func (traceCodec) Size(t *Trace) int64                { return t.MemBytes() }
func (traceCodec) Encode(t *Trace) []byte             { return Encode(t) }
func (traceCodec) Decode(data []byte) (*Trace, error) { return Decode(data) }
