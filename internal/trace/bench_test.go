package trace_test

import (
	"testing"

	"rebalance/internal/bpred"
	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// BenchmarkExecutorEmit measures end-to-end emission throughput — executor
// plus the paper's full nine-predictor simulation — for both engines over
// the same workload, so one run yields the compiled-over-reference speedup
// in instructions/sec (b.N counts dynamic instructions; ns/op is
// ns/instruction).
func BenchmarkExecutorEmit(b *testing.B) {
	prog := workload.MustBuild("comd-lite")
	c, err := trace.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		e := trace.NewCompiledExecutor(c, 1)
		e.Attach(trace.NewFeed(bpred.NewSim(bpred.StandardConfigs()...)))
		b.ResetTimer()
		if err := e.Run(int64(b.N)); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("reference", func(b *testing.B) {
		e := trace.NewExecutor(prog, 1)
		e.Attach(trace.NewFeed(bpred.NewSim(bpred.StandardConfigs()...)))
		b.ResetTimer()
		if err := e.RunReference(int64(b.N)); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkExecutorEmitBare isolates the emission pipeline itself, into
// consumers that do nothing, so the numbers bound how fast each engine can
// produce the stream: compiled/lanes is the production path (lanes rendered
// and handed over), compiled/insts the same lanes plus the one Expand an
// instruction observer costs — what bench/'s trace.generate_ns_per_inst
// prices — and reference the tree walk with no observer to dispatch to.
func BenchmarkExecutorEmitBare(b *testing.B) {
	prog := workload.MustBuild("comd-lite")
	c, err := trace.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, sink := range []struct {
		name string
		obs  trace.Observer
	}{{"compiled/lanes", nopLanes{}}, {"compiled/insts", batchFunc(func([]isa.Inst) {})}} {
		b.Run(sink.name, func(b *testing.B) {
			e := trace.NewCompiledExecutor(c, 1)
			e.Attach(sink.obs)
			b.ResetTimer()
			if err := e.Run(int64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.Run("reference", func(b *testing.B) {
		e := trace.NewExecutor(prog, 1)
		b.ResetTimer()
		if err := e.RunReference(int64(b.N)); err != nil {
			b.Fatal(err)
		}
	})
}

type nopLanes struct{}

func (nopLanes) Observe(isa.Inst)      {}
func (nopLanes) ConsumeLane(*isa.Lane) {}

// BenchmarkScan prices the one pass that reduces instructions to fetch runs
// (b.N counts instructions, so ns/op is ns/inst) and reports how many runs
// an instruction becomes — the factor by which the lane consumers' work
// shrinks.
func BenchmarkScan(b *testing.B) {
	for _, name := range []string{"comd-lite", "xalan-lite"} {
		b.Run(name, func(b *testing.B) {
			_, batches := grabStream(b, name, 400_000)
			var runs []isa.Run
			var insts, nruns int
			b.ResetTimer()
			for insts < b.N {
				for _, batch := range batches {
					runs = trace.Scan(batch, runs)
					insts, nruns = insts+len(batch), nruns+len(runs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
			b.ReportMetric(float64(nruns)/float64(insts), "runs/inst")
		})
	}
}
