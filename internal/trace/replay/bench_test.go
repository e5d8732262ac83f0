package replay

import (
	"context"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// The two unit costs of a materialized stream, per instruction, without
// the bench harness: BenchmarkRecord is bench's replay.record_ns_per_inst
// (a compiled generation pass into a reserved Recorder) and
// BenchmarkDeliver/insts its replay.deliver_ns_per_inst (the walk into an
// instruction observer that does nothing). B/inst is the resident charge,
// MemBytes per instruction.

func BenchmarkRecord(b *testing.B) {
	c, err := trace.Compile(workload.MustBuild("xalan-lite"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rec := NewRecorder()
	rec.Reserve(b.N)
	e := trace.NewCompiledExecutor(c, 1)
	e.Attach(rec)
	if err := e.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportPerInst(b, rec.Trace(), e.Emitted())
}

// BenchmarkDeliver prices the walk into a lane consumer that does nothing
// (lanes: the production path) and into a batch observer that does nothing
// (insts: the same lanes plus trace.Expand, what bench/'s hand-driven rows
// and any instruction observer pay).
func BenchmarkDeliver(b *testing.B) {
	tr := recordWorkload(b, "xalan-lite", 1, 1_000_000)
	for _, sink := range []struct {
		name string
		obs  trace.Observer
	}{{"lanes", nopLanes{}}, {"insts", nopBatches{}}} {
		b.Run(sink.name, func(b *testing.B) {
			var insts int64
			for ; insts < int64(b.N); insts += int64(tr.Len()) {
				if err := Deliver(context.Background(), tr, trace.BatchSize, sink.obs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPerInst(b, tr, insts)
		})
	}
}

func reportPerInst(b *testing.B, tr *Trace, insts int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	b.ReportMetric(float64(tr.MemBytes())/float64(tr.Len()), "B/inst")
}

type nopBatches struct{}

func (nopBatches) Observe(isa.Inst)        {}
func (nopBatches) ObserveBatch([]isa.Inst) {}

type nopLanes struct{}

func (nopLanes) Observe(isa.Inst)      {}
func (nopLanes) ConsumeLane(*isa.Lane) {}
