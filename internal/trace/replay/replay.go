// Package replay materializes the dynamic instruction stream so one
// generation pass can feed many observers — the stream-once, observe-many
// refactor. A multi-observer sweep expands every (workload, seed) into one
// shard per observer configuration; shards that do not run in one group —
// a worker handed them one by one, a later run — would each regenerate the
// exact same stream. Since streams are deterministic per
// (workload|synth-params, seed, insts) coordinate, the stream is a
// cacheable value. This package provides the three pieces:
//
//   - Trace: one materialized stream, a flat []isa.Inst with its phase-run
//     boundaries precomputed so replay can honor the executor's
//     "batches never mix serial and parallel sections" contract.
//   - Recorder: a trace.Observer that captures a generation pass into a
//     Trace.
//   - Store: internal/tiercache instantiated over Traces — the same
//     two-tier, singleflight-deduplicating cache shardcache is, one level
//     down: shardcache memoizes finished observer results, the trace store
//     memoizes the stream they observe.
//
// Replaying a Trace through an observer is bit-equivalent to attaching the
// observer to a live executor: both engines emit identical streams for a
// coordinate (the engine-equivalence tests pin this), observer results are
// invariant to batch boundaries (the batch-size invariance tests pin
// that), and Deliver cuts batches only inside a phase, so every invariant
// an observer may rely on survives materialization.
package replay

import (
	"context"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
)

// instMemBytes is the in-memory footprint charged per instruction for the
// Store's byte accounting: the size of isa.Inst (8-byte PC and Target,
// three single-byte fields, two bools, padded to 8-byte alignment).
const instMemBytes = 32

// Trace is one materialized instruction stream: the exact program-order
// sequence a generation pass emitted, plus the precomputed boundaries of
// its maximal same-phase runs. A Trace is immutable after construction and
// safe to replay from any number of goroutines concurrently.
type Trace struct {
	insts []isa.Inst
	// runs holds the exclusive end index of each maximal run of
	// instructions sharing one Serial value, in stream order; the last
	// entry equals len(insts). Deliver cuts batches inside these runs
	// only, so replayed batches never mix serial and parallel phases —
	// the same guarantee the executor's region-boundary flush provides.
	runs []int
}

// NewTrace builds a Trace over insts, taking ownership of the slice.
func NewTrace(insts []isa.Inst) *Trace {
	t := &Trace{insts: insts}
	for i := 1; i < len(insts); i++ {
		if insts[i].Serial != insts[i-1].Serial {
			t.runs = append(t.runs, i)
		}
	}
	if len(insts) > 0 {
		t.runs = append(t.runs, len(insts))
	}
	return t
}

// Len returns the number of instructions in the trace.
func (t *Trace) Len() int { return len(t.insts) }

// MemBytes returns the trace's approximate resident size, the unit of the
// Store's memory-tier byte accounting.
func (t *Trace) MemBytes() int64 {
	return int64(len(t.insts))*instMemBytes + int64(len(t.runs))*8
}

// Recorder captures a generation pass into a Trace. Attach it to an
// executor like any other observer; it receives batches natively on the
// compiled path and per-instruction calls on the reference path, and
// either way appends exactly the emitted stream in program order.
type Recorder struct {
	insts []isa.Inst
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reserve pre-sizes the recorder for n more instructions. Generation
// passes know their instruction budget up front; reserving it once avoids
// the geometric realloc-and-copy churn of growing a multi-megabyte slice
// batch by batch.
func (r *Recorder) Reserve(n int) {
	if n <= 0 || cap(r.insts)-len(r.insts) >= n {
		return
	}
	grown := make([]isa.Inst, len(r.insts), len(r.insts)+n)
	copy(grown, r.insts)
	r.insts = grown
}

// Observe implements trace.Observer.
func (r *Recorder) Observe(in isa.Inst) { r.insts = append(r.insts, in) }

// ObserveBatch implements trace.BatchObserver. The executor reuses the
// batch slice after the call returns, so the contents are copied.
func (r *Recorder) ObserveBatch(batch []isa.Inst) { r.insts = append(r.insts, batch...) }

// Trace returns the recorded stream as an immutable Trace. Call once,
// after the generation run completes; the recorder must not be reused.
func (r *Recorder) Trace() *Trace {
	t := NewTrace(r.insts)
	r.insts = nil
	return t
}

// Deliver replays the trace through the given observers: per-instruction
// Observe calls for plain observers, program-order batches of at most
// batchSize for observers that implement trace.BatchObserver — the
// promotion rule Executor.Attach applies (trace.AsBatch). Batches are cut at phase boundaries
// (never mixing serial and parallel instructions) and the delivered slices
// alias the trace, so observers must not retain or mutate them — the same
// contract live batches carry. The context is polled between batches,
// matching the executor's region-granularity cancellation; a nil ctx (or
// one that cannot be cancelled) disables polling.
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
	start := 0
	for _, end := range t.runs {
		for start < end {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			n := end - start
			if n > batchSize {
				n = batchSize
			}
			batch := t.insts[start : start+n]
			for _, bo := range batched {
				bo.ObserveBatch(batch)
			}
			start += n
		}
	}
	return nil
}
