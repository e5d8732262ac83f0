package sim

import (
	"context"
	"encoding/json"
	"testing"

	"rebalance/internal/trace/replay"
)

// benchSweepSpec is a scaled-down multi-observer sweep in the shape of the
// bench harness's mixed9 grid: nine observer configurations over every (workload,
// seed) coordinate, so each coordinate's stream is consumed nine times and
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
// three ways: regenerating the stream for every shard, replaying through a
// cold trace store (one generation per coordinate), and replaying through
// a warm one (no generations at all). The warm/generate ratio is the
// stream-once win the trace store exists for.
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
