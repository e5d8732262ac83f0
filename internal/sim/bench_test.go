package sim

import (
	"context"
	"encoding/json"
	"testing"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
)

// benchSweepSpec is a scaled-down multi-observer sweep in the shape of the
// bench harness's mixed9 grid: nine observer configurations over every (workload,
// seed) coordinate, so each coordinate's stream has nine consumers and
// the generate-versus-replay difference is what a real mixed sweep sees.
func benchSweepSpec(insts int64) *Spec {
	return &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 2,
		Insts:     insts,
		Observers: []ObserverSpec{
			{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big"]}`)},
			{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4},{"entries":1024,"ways":8}]}`)},
			{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4},{"size_kb":32,"line_bytes":64,"ways":8}]}`)},
			{Kind: "branch-mix"},
			{Kind: "bbl"},
		},
	}
}

// BenchmarkReplayVsGenerate times the same 36-shard multi-observer sweep
// three ways: a live executor per coordinate (no store), replaying through
// a cold trace store (the same generation per coordinate, plus recording),
// and replaying through a warm one (no generations at all). The
// warm/generate ratio is what a store still buys a later run now that the
// plan streams once per coordinate on its own.
func BenchmarkReplayVsGenerate(b *testing.B) {
	const insts = 200_000
	spec := benchSweepSpec(insts)
	ctx := context.Background()

	run := func(b *testing.B, sess *Session) {
		b.Helper()
		rep, err := sess.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(rep.TotalInsts)
	}

	b.Run("generate", func(b *testing.B) {
		sess := NewSession(2)
		for b.Loop() {
			run(b, sess)
		}
	})
	b.Run("replay-cold", func(b *testing.B) {
		for b.Loop() {
			b.StopTimer()
			traces, err := replay.New(replay.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sess := NewSession(2)
			sess.SetTraceStore(traces)
			b.StartTimer()
			run(b, sess)
		}
	})
	b.Run("replay-warm", func(b *testing.B) {
		traces, err := replay.New(replay.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sess := NewSession(2)
		sess.SetTraceStore(traces)
		if _, err := sess.Run(ctx, spec); err != nil {
			b.Fatal(err) // warm the store outside the timed loop
		}
		b.ResetTimer()
		for b.Loop() {
			run(b, sess)
		}
	})
}

// benchRun times Session.Run over spec and reports the wall per
// instruction-observation (every shard observes its whole stream, so a
// sweep's observations are its TotalInsts): the figure the plan moves, by
// sharing one generation pass and one branch compaction per coordinate.
func benchRun(b *testing.B, sess *Session, spec *Spec) {
	b.Helper()
	ctx := context.Background()
	if _, err := sess.Run(ctx, spec); err != nil {
		b.Fatal(err) // compiles the workloads outside the timed loop
	}
	var observed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sess.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		observed += rep.TotalInsts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(observed), "ns/inst-obs")
}

// BenchmarkRunFig5Grid is the bench harness's fig5-generate sweep scaled to
// `make bench-go`: the 72-shard Figure-5 grid (2 workloads x 4 seeds x the
// nine predictor configurations) on a storeless, cacheless 2-worker session.
func BenchmarkRunFig5Grid(b *testing.B) {
	benchRun(b, NewSession(2), &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 4,
		Insts:     200_000,
		Observers: []ObserverSpec{{Kind: "bpred"}},
	})
}

// BenchmarkRunOneCoordinateGrid is the plan's other regime: one coordinate
// under the nine standard icache geometries on a 4-worker session, where
// the coordinate is cut into four chunks so every worker has one.
func BenchmarkRunOneCoordinateGrid(b *testing.B) {
	benchRun(b, NewSession(4), &Spec{
		Workloads: []string{"comd-lite"},
		SeedCount: 1,
		Insts:     200_000,
		Observers: []ObserverSpec{{Kind: "icache"}},
	})
}

// BenchmarkMixed9Pass is one coordinate's pass as runGroup makes it: the
// nine mixed9 configurations built by groupObservers and fed one recorded
// stream. ns/inst is the whole pass — the lane decode and nine consumptions
// — per instruction of the stream, the layer figure behind the two mixed9
// replay workloads.
func BenchmarkMixed9Pass(b *testing.B) {
	cfgs, err := expandObservers(benchSweepSpec(1).Observers)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"comd-lite", "xalan-lite"} {
		b.Run(name, func(b *testing.B) {
			c, err := NewSession(1).Compiled(name)
			if err != nil {
				b.Fatal(err)
			}
			rec := replay.NewRecorder()
			if _, err := generate(ctx, c, &ShardSpec{Seed: 1, Insts: 2_000_000}, rec); err != nil {
				b.Fatal(err)
			}
			tr := rec.Trace()
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed, _ := groupObservers(cfgs, c.Program())
				if err := replay.Deliver(ctx, tr, trace.BatchSize, feed); err != nil {
					b.Fatal(err)
				}
				insts += int64(tr.Len())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}

// BenchmarkCachedRerun is the bench harness's mixed9-cached-rerun at its
// grid shape (2 workloads x 4 seeds x the nine configurations, 2M insts a
// shard): every shard a hit in a warm memory tier, so an op is key, lookup,
// merge and the report's json.Marshal — spec in, report bytes out. The
// session runs GOMAXPROCS workers, but an all-hits grid plans no unit and
// starts no goroutine, so -cpu should not move it.
func BenchmarkCachedRerun(b *testing.B) {
	spec := benchSweepSpec(2_000_000)
	spec.SeedCount = 4
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sess := NewSession(0)
	sess.SetCache(cache)
	ctx := context.Background()
	for i := 0; i < 2; i++ { // fill the cache, then decode every record once
		if _, err := sess.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sess.Run(ctx, spec)
		if err == nil {
			_, err = json.Marshal(rep)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// mixed9Records is a mixed9 sweep's report at the bench harness's grid
// shape (2 workloads x 4 seeds x the nine configurations) as the 90 shard
// records a cached rerun of it moves: the 72 shards and the 18 merged folds,
// each a Shard with the spec DecodeShard checks it against. A result's size
// does not grow with the budget, so a short one serves.
func mixed9Records(b *testing.B) (*Report, []Shard, []ShardSpec, []ObserverConfig) {
	b.Helper()
	spec := benchSweepSpec(20_000)
	spec.SeedCount = 4
	rep, err := NewSession(2).Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	cfgs, err := expandObservers(spec.Observers)
	if err != nil {
		b.Fatal(err)
	}
	byKey := map[string]ObserverConfig{}
	for _, cfg := range cfgs {
		byKey[cfg.Key()] = cfg
	}
	shards := append([]Shard(nil), rep.Shards...)
	for _, m := range rep.Merged {
		shards = append(shards, Shard{Workload: m.Workload, Observer: m.Observer, Insts: spec.Insts, Result: m.Result})
	}
	specs := make([]ShardSpec, len(shards))
	cfgOf := make([]ObserverConfig, len(shards))
	for i, sh := range shards {
		specs[i] = ShardSpec{Workload: sh.Workload, Seed: sh.Seed, Insts: sh.Insts}
		cfgOf[i] = byKey[sh.Observer]
	}
	return rep, shards, specs, cfgOf
}

// BenchmarkShardRecordCodec is the record layer of a cached rerun: each of
// the 90 mixed9 records encoded (EncodeShard, what a worker answers and a
// cache stores) and decoded (DecodeShard, what a cache hit and a dispatched
// answer cost). ns/op covers all 90.
func BenchmarkShardRecordCodec(b *testing.B) {
	_, shards, specs, cfgs := mixed9Records(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range shards {
			rec, err := EncodeShard(shards[i])
			if err == nil {
				shardSink, err = DecodeShard(rec, specs[i], cfgs[i])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// shardSink keeps the benchmarked decode's result live.
var shardSink Shard

// BenchmarkReportEncode is the report layer of every sweep: json.Marshal of
// the mixed9 report, as bench/'s timed sweep and simd's answer write it.
func BenchmarkReportEncode(b *testing.B) {
	rep, _, _, _ := mixed9Records(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		enc, err := json.Marshal(rep)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
	}
}
