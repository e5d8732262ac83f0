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
//     and expanded into isa.Inst batches only while it is delivered.
//   - Recorder: a trace.Observer that captures a generation pass into a
//     Trace by encoding each batch as it arrives.
//   - Store: internal/tiercache instantiated over Traces — the same
//     two-tier, singleflight-deduplicating cache shardcache is, one level
//     down: shardcache memoizes finished observer results, the trace store
//     memoizes the stream they observe.
//
// Replaying a Trace through an observer is bit-equivalent to attaching the
// observer to a live executor: both engines emit identical streams for a
// coordinate (the engine-equivalence tests pin this), observer results are
// invariant to batch boundaries (the batch-size invariance tests pin
// that), and Deliver ends a batch where the phase changes, so every
// invariant an observer may rely on survives materialization.
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
// executor like any other observer; it receives batches natively on the
// compiled path and per-instruction calls on the reference path, and
// either way appends exactly the emitted stream's trr1 records in program
// order. Its domain is trr1's, which is the executor's: a non-branch
// carries no Taken or Target, Kind fits three bits and Size is non-zero.
type Recorder struct {
	n    int
	body []byte
	next isa.Addr // NextPC of the last recorded instruction
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

// Observe implements trace.Observer.
func (r *Recorder) Observe(in isa.Inst) { r.ObserveBatch([]isa.Inst{in}) }

// ObserveBatch implements trace.BatchObserver: the trr1 encoder. The batch
// is cache-hot from the executor and only its records are written out.
func (r *Recorder) ObserveBatch(batch []isa.Inst) {
	body, next, n := r.body, r.next, r.n
	for i := range batch {
		in := &batch[i]
		phase := byte(0)
		if in.Serial {
			phase = flagSerial
		}
		seq := n != 0 && in.PC == next
		n++
		if seq && in.Kind == isa.KindOther {
			body = append(body, flagSeqPC|phase, in.Size)
			next += isa.Addr(in.Size)
			continue
		}
		flags := byte(in.Kind)&kindMask | phase
		if seq {
			flags |= flagSeqPC
		}
		next = in.PC + isa.Addr(in.Size)
		branch := flags&kindMask != 0
		if branch && in.Taken {
			flags |= flagTaken
			next = in.Target
		}
		body = append(body, flags, in.Size)
		if !seq {
			body = binary.AppendUvarint(body, uint64(in.PC))
		}
		if branch {
			body = binary.AppendVarint(body, int64(in.Target)-int64(in.PC))
		}
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

// Deliver replays the trace through the given observers: per-instruction
// Observe calls for plain observers, program-order batches of at most
// batchSize for observers that implement trace.BatchObserver — the
// promotion rule Executor.Attach applies (trace.AsBatch). Each batch is
// decoded into one buffer reused for the whole replay and ends where the
// phase changes (never mixing serial and parallel instructions), so
// observers must not retain or mutate it — the same contract live batches
// carry. The context is polled between batches, matching the executor's
// region-granularity cancellation; a nil ctx (or one that cannot be
// cancelled) disables polling.
func Deliver(ctx context.Context, t *Trace, batchSize int, obs ...trace.Observer) error {
	if batchSize <= 0 {
		batchSize = trace.BatchSize
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	batched := make([]trace.BatchObserver, len(obs))
	for i, o := range obs {
		batched[i] = trace.AsBatch(o)
	}
	buf := make([]isa.Inst, min(batchSize, t.n))
	for r := t.reader(); r.i < r.n; {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n, err := r.fill(buf)
		if err != nil {
			return err
		}
		for _, bo := range batched {
			bo.ObserveBatch(buf[:n])
		}
	}
	return nil
}
