package bpred_test

import (
	"testing"

	"rebalance/internal/bpred"
	"rebalance/internal/isa"
	"rebalance/internal/rng"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// synthBatch builds one BatchSize-sized batch with a paper-plausible mix
// (~12% conditional branches over a few hundred sites, biased outcomes).
func synthBatch() []isa.Inst {
	r := rng.New(99)
	batch := make([]isa.Inst, trace.BatchSize)
	pc := isa.Addr(0x400000)
	for i := range batch {
		if r.Bool(0.12) {
			taken := r.Bool(0.7)
			site := isa.Addr(0x400000 + 4*uint64(r.Intn(400)))
			batch[i] = isa.Inst{PC: site, Size: 2, Kind: isa.KindCondDirect, Taken: taken, Target: site - 64}
		} else {
			batch[i] = isa.Inst{PC: pc, Size: 4, Kind: isa.KindOther}
		}
		pc += 4
	}
	return batch
}

// BenchmarkSimNinePredictors measures the batched nine-configuration branch
// prediction simulation; b.N counts dynamic instructions.
func BenchmarkSimNinePredictors(b *testing.B) {
	batch := synthBatch()
	feed := trace.NewFeed(bpred.NewSim(bpred.StandardConfigs()...))
	b.ResetTimer()
	for fed := 0; fed < b.N; fed += len(batch) {
		feed.ObserveBatch(batch)
	}
}

// BenchmarkTAGEAccess measures the big TAGE configuration's Access path on a
// synthetic loop, not a realistic stream: 512 random sites visited in turn,
// where the taken pattern (i&3 != 0) repeats with the site, so three sites in
// four are always taken and the rest never. It prices Access in isolation; the
// cost on a real stream is BenchmarkComponentWalk's tage-big row.
func BenchmarkTAGEAccess(b *testing.B) {
	t := bpred.NewTAGEBig()
	r := rng.New(7)
	const sites = 512
	pcs := make([]isa.Addr, sites)
	for i := range pcs {
		pcs[i] = isa.Addr(0x400000 + 4*uint64(r.Intn(8192)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(pcs[i%sites], i&3 != 0)
	}
}

// BenchmarkSimStream runs the nine predictors over each built-in workload's
// stream via the compiled executor, the configuration the sweep harness uses
// (the fig5-generate pass); b.N counts dynamic instructions, so ns/inst is
// generation, the scan and the simulation together.
func BenchmarkSimStream(b *testing.B) {
	for _, name := range []string{"comd-lite", "xalan-lite"} {
		b.Run(name, func(b *testing.B) {
			e := trace.NewExecutor(workload.MustBuild(name), 1)
			e.Attach(trace.NewFeed(bpred.NewSim(bpred.StandardConfigs()...)))
			b.ResetTimer()
			if err := e.Run(int64(b.N)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
		})
	}
}
