package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/sim/sweep"
)

// BenchmarkFrontDoorFleet is sync-run throughput on an emulated fleet: 8
// clients POST /v1/runs back to back to a front door with -workers 16 and
// no result cache, which dispatches every unit to one worker behind a
// handler that delays each call by 5 ms, a network round trip. Each run is
// two one-shard coordinates, so the front door's concurrency budget, not
// the worker's compute, sets the rate. It reports runs/s.
func BenchmarkFrontDoorFleet(b *testing.B) {
	worker := dispatch.WorkerHandler(sim.NewSession(0), 0)
	delayed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		worker.ServeHTTP(w, r)
	}))
	defer delayed.Close()
	d, err := dispatch.New([]dispatch.Backend{dispatch.NewHTTPBackend(delayed.URL, dispatch.DefaultClient(16))},
		dispatch.Options{MaxInFlight: 16})
	if err != nil {
		b.Fatal(err)
	}
	sess := sim.NewSession(16)
	sess.SetRunner(d)
	frontDoorRuns(b, serverConfig{sess: sess, dispatcher: d})
}

// BenchmarkFrontDoorLocal is the same 8 clients against a front door that
// computes every unit on its own pool of 2 workers.
func BenchmarkFrontDoorLocal(b *testing.B) {
	frontDoorRuns(b, serverConfig{sess: sim.NewSession(2)})
}

// frontDoorRuns serves cfg as a front door and has 8 clients, each its own
// tenant, share b.N sync runs of a two-shard spec; it reports runs/s.
func frontDoorRuns(b *testing.B, cfg serverConfig) {
	const clients = 8
	coord, err := sweep.New(sweep.Options{Run: cfg.sess.Run})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	cfg.coord, cfg.maxInsts = coord, 1_000_000
	front := httptest.NewServer(newServer(cfg))
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	const spec = `{"workloads": ["comd-lite"], "seed_count": 2, "insts": 1000, "observers": [{"kind": "bbl"}]}`

	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := front.URL + "/v1/runs?tenant=client" + string(rune('0'+c))
			for next.Add(1) <= int64(b.N) {
				resp, err := client.Post(url, "application/json", strings.NewReader(spec))
				if err != nil {
					b.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Errorf("sync run: status %d, %v", resp.StatusCode, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkRunsCachedHTTP is a warm POST /v1/runs on a front door with a
// result cache: comd-lite and xalan-lite, 4 seeds, 200k instructions, all
// seven observer kinds at their defaults — 248 shards, every one a cache
// hit after the warm-up, so an op is admission, lookup, merge and the
// report's encoding onto the wire, read in full by the client.
func BenchmarkRunsCachedHTTP(b *testing.B) {
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sess := sim.NewSession(2)
	sess.SetCache(cache)
	coord, err := sweep.New(sweep.Options{Run: sess.Run})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(newServer(serverConfig{sess: sess, coord: coord}))
	defer front.Close()
	const spec = `{"workloads": ["comd-lite", "xalan-lite"], "seed_count": 4, "insts": 200000, "observers": [
		{"kind": "bpred"}, {"kind": "btb"}, {"kind": "icache"}, {"kind": "branch-mix"},
		{"kind": "bias"}, {"kind": "footprint"}, {"kind": "bbl"}]}`
	run := func() int64 {
		resp, err := http.Post(front.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("run: status %d, %v", resp.StatusCode, err)
		}
		return n
	}
	b.SetBytes(run()) // the warm-up fills the cache
	b.ResetTimer()
	for range b.N {
		run()
	}
}
