package dispatch_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

// mixed9Spec is the bench harness's mixed9 grid — nine configurations of
// five kinds over 2 workloads x 4 seeds, 72 shards on 8 coordinates — at
// insts per shard (50k is coord-dispatch-small).
func mixed9Spec(insts int64) *sim.Spec {
	return &sim.Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 4,
		Insts:     insts,
		Observers: []sim.ObserverSpec{
			{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big"]}`)},
			{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4},{"entries":1024,"ways":8}]}`)},
			{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4},{"size_kb":32,"line_bytes":64,"ways":8}]}`)},
			{Kind: "branch-mix"},
			{Kind: "bbl"},
		},
	}
}

// BenchmarkDispatchLoopbackGrid is the layer figure behind
// coord-dispatch-small: the mixed9 grid at 50k insts per shard through
// Dispatcher -> HTTPBackend -> a loopback WorkerHandler, beside the same
// grid on a plain Session — what the protocol costs over the work itself —
// with the backend calls a sweep makes (one per planned unit).
func BenchmarkDispatchLoopbackGrid(b *testing.B) {
	const workers = 2
	spec := mixed9Spec(50_000)
	ctx := context.Background()
	sweep := func(b *testing.B, sess *sim.Session) {
		b.Helper()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := sess.Run(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/sweep")
	}

	b.Run("dispatched", func(b *testing.B) {
		srv := newWorkerServer(b, sim.NewSession(workers))
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
		defer client.CloseIdleConnections()
		cb := &countingWrapper{inner: dispatch.NewHTTPBackend(srv.URL, client)}
		d, err := dispatch.New([]dispatch.Backend{cb}, dispatch.Options{MaxInFlight: workers})
		if err != nil {
			b.Fatal(err)
		}
		front := sim.NewSession(workers)
		front.SetRunner(d)
		sweep(b, front)
		b.ReportMetric(float64(cb.calls.Load())/float64(b.N), "calls/sweep")
	})
	b.Run("session", func(b *testing.B) {
		sweep(b, sim.NewSession(workers))
	})
}
