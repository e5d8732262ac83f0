// Package replay materializes the dynamic instruction stream so one
// generation pass can feed many observers — the stream-once, observe-many
// refactor. A multi-observer sweep expands every (workload, seed) into one
// shard per observer configuration; shards that do not run in one group —
// a worker handed them one by one, a later run — would each regenerate the
// exact same stream. Since streams are deterministic per
// (workload|synth-params, seed, insts) coordinate, the stream is a
// cacheable value. This package provides the three pieces:
//
//   - Trace: one materialized stream, held as its trr1 records (see
//     encode.go) — the bytes the disk tier stores, ≈ 2.2 per instruction —
//     and decoded into lanes (isa.Lane: fetch runs plus instruction sizes)
//     only while it is delivered.
//   - Recorder: a trace.LaneConsumer that captures a generation pass into a
//     Trace by encoding each lane as it arrives.
//   - Store: internal/tiercache instantiated over Traces — the same
//     two-tier, singleflight-deduplicating cache shardcache is, one level
//     down: shardcache memoizes finished observer results, the trace store
//     memoizes the stream they observe.
//
// Neither direction builds an isa.Inst; only an observer that is not a
// trace.LaneConsumer makes Deliver expand each lane into a batch.
//
// Replaying a Trace through an observer is bit-equivalent to attaching the
// observer to a live executor: both engines emit identical streams for a
// coordinate (the engine-equivalence tests pin this), observer results are
// invariant to where batches and runs are cut (the batch-size invariance
// and lane differential tests pin that), and Deliver ends a batch where the
// phase changes, so every invariant an observer may rely on survives
// materialization.
package replay

import (
	"context"
	"encoding/binary"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
)

// Trace is one materialized instruction stream: the exact program-order
// sequence a generation pass emitted, as n trr1 instruction records (a
// trr1 payload without its header). A Trace is immutable after
// construction and safe to replay from any number of goroutines
// concurrently.
type Trace struct {
	n    int
	body []byte
}

// Len returns the number of instructions in the trace.
func (t *Trace) Len() int { return t.n }

// MemBytes returns the trace's resident size, the unit of the Store's
// memory-tier byte accounting: the capacity of the record buffer, so what
// a Recorder reserved beyond the stream's need is charged too.
func (t *Trace) MemBytes() int64 { return int64(cap(t.body)) }

func (t *Trace) reader() reader { return reader{body: t.body, n: t.n} }

// Recorder captures a generation pass into a Trace. Attach it to an
// executor like any other observer; it receives lanes on the compiled path
// and per-instruction calls on the reference path, and either way appends
// exactly the emitted stream's trr1 records in program order, however the
// stream was cut. Its domain is trr1's, which is the executor's: a non-branch
// carries no Taken or Target, Kind fits three bits and Size is non-zero.
type Recorder struct {
	n    int
	body []byte
	next isa.Addr    // NextPC of the last recorded instruction
	feed *trace.Feed // Observe's adapter from an instruction to a lane
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reserve pre-sizes the recorder for n more instructions, at 2.5 bytes
// each: generated streams encode to 2.1–2.4, and a denser one grows the
// buffer by appending. Generation passes know their instruction budget up
// front; reserving it once avoids the geometric realloc-and-copy churn of
// growing the buffer batch by batch.
func (r *Recorder) Reserve(n int) {
	need := n * 5 / 2
	if n <= 0 || cap(r.body)-len(r.body) >= need {
		return
	}
	grown := make([]byte, len(r.body), len(r.body)+need)
	copy(grown, r.body)
	r.body = grown
}

// Observe implements trace.Observer, for the reference engine: the
// instruction as a one-run lane.
func (r *Recorder) Observe(in isa.Inst) {
	if r.feed == nil {
		r.feed = trace.NewFeed(r)
	}
	r.feed.Observe(in)
}

// ConsumeLane implements trace.LaneConsumer: the trr1 encoder. A run is one
// record that may carry its address, then a two-byte record per further
// instruction, the last one — if a branch ended the run — with its outcome.
func (r *Recorder) ConsumeLane(l *isa.Lane) {
	body, next, n := r.body, r.next, r.n
	phase := byte(0)
	if l.Phase == 0 {
		phase = flagSerial
	}
	sizes := l.Sizes
	for i := range l.Runs {
		run := &l.Runs[i]
		plain := sizes[:run.Insts]
		sizes = sizes[run.Insts:]
		branch := run.Kind != isa.KindOther
		var brSize uint8
		if branch {
			brSize, plain = plain[len(plain)-1], plain[:len(plain)-1]
		}
		seq := n != 0 && run.Start == next
		n += int(run.Insts)
		if len(plain) > 0 {
			if seq {
				body = append(body, flagSeqPC|phase, plain[0])
			} else {
				body = append(body, phase, plain[0])
				body = binary.AppendUvarint(body, uint64(run.Start))
			}
			for _, sz := range plain[1:] {
				body = append(body, flagSeqPC|phase, sz)
			}
			seq = true
		}
		next = run.Start + isa.Addr(run.Bytes)
		if !branch {
			continue
		}
		flags := byte(run.Kind)&kindMask | phase
		if seq {
			flags |= flagSeqPC
		}
		if run.Taken {
			flags |= flagTaken
			next = run.Target
		}
		body = append(body, flags, brSize)
		if !seq {
			body = binary.AppendUvarint(body, uint64(run.PC))
		}
		body = binary.AppendVarint(body, int64(run.Target)-int64(run.PC))
	}
	r.body, r.next, r.n = body, next, n
}

// Trace returns the recorded stream as an immutable Trace. Call once,
// after the generation run completes; the recorder must not be reused.
func (r *Recorder) Trace() *Trace {
	t := &Trace{n: r.n, body: r.body}
	*r = Recorder{}
	return t
}

// Deliver replays the trace through the given observers, by the rule
// Executor.Attach applies: an observer that implements trace.LaneConsumer
// receives each decoded lane itself; the rest share one trace.Expand of it,
// promoted to batches by trace.AsBatch. A lane holds at most batchSize
// instructions and ends where the phase changes (never mixing serial and
// parallel instructions); it and its expansion are reused for the whole
// replay, so observers must not retain or mutate them — the same contract
// live lanes and batches carry. The context is polled between lanes,
// matching the executor's region-granularity cancellation; a nil ctx (or one
// that cannot be cancelled) disables polling.
func Deliver(ctx context.Context, t *Trace, batchSize int, obs ...trace.Observer) error {
	if batchSize <= 0 {
		batchSize = trace.BatchSize
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	var lanes []trace.LaneConsumer
	var batched []trace.BatchObserver
	for _, o := range obs {
		if lc, ok := o.(trace.LaneConsumer); ok {
			lanes = append(lanes, lc)
		} else {
			batched = append(batched, trace.AsBatch(o))
		}
	}
	var lane isa.Lane
	var buf []isa.Inst // the lane expanded, only if batched is non-empty
	for r := t.reader(); r.i < r.n; {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := r.fill(&lane, batchSize); err != nil {
			return err
		}
		for _, lc := range lanes {
			lc.ConsumeLane(&lane)
		}
		if len(batched) > 0 {
			buf = trace.Expand(&lane, buf)
			for _, bo := range batched {
				bo.ObserveBatch(buf)
			}
		}
	}
	return nil
}
