package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rebalance/internal/sim"
	"rebalance/internal/trace/replay"
)

// tracedServer stands up a simd worker whose session has a materialized
// trace store and no result cache, the way main wires -trace-entries with
// -cache-entries 0 — the isolation TestFleet's replay leg runs under.
func tracedServer(t *testing.T, dir string) (*httptest.Server, *replay.Store) {
	t.Helper()
	traces, err := replay.New(replay.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(2)
	sess.SetMaxShards(256)
	sess.SetTraceStore(traces)
	srv := httptest.NewServer(newServer(serverConfig{sess: sess, maxInsts: 1_000_000, worker: true}))
	t.Cleanup(srv.Close)
	return srv, traces
}

type traceStatsResp struct {
	Enabled bool         `json:"enabled"`
	Stats   replay.Stats `json:"stats"`
}

// postShard posts spec to the worker protocol as a one-member array and
// returns the member's record: the shard, or its {"error", "invalid"}.
func postShard(t *testing.T, url, spec string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Post(url+"/v1/shards", "application/json", bytes.NewReader([]byte("["+spec+"]")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/shards: status %d", resp.StatusCode)
	}
	var recs []map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("POST /v1/shards answered %d records for one member", len(recs))
	}
	return recs[0]
}

func traceStats(t *testing.T, url string) traceStatsResp {
	t.Helper()
	var stats struct {
		Traces traceStatsResp `json:"traces"`
	}
	getJSON(t, url+"/v1/stats", &stats)
	return stats.Traces
}

// TestTraceStatsDisabled pins the default: without -trace-entries or
// -trace-dir the traces block reports disabled with zero gauges.
func TestTraceStatsDisabled(t *testing.T) {
	srv := testServer(t)
	st := traceStats(t, srv.URL)
	if st.Enabled || st.Stats.Misses != 0 {
		t.Errorf("traces block on a store-less session = %+v, want disabled and zeroed", st)
	}
}

// TestWorkerTraceStoreObserveMany drives the worker protocol with two
// different observers over one (workload, seed, insts) coordinate: the
// stream is generated exactly once, the second observer replays it, and
// the /v1/stats trace gauges account for both — the cross-check the
// replay leg of TestFleet performs over real processes.
func TestWorkerTraceStoreObserveMany(t *testing.T) {
	srv, _ := tracedServer(t, "")
	plain := testServer(t)

	specs := []string{
		`{"workload":"comd-lite","seed":3,"insts":20000,"observer":{"kind":"bbl"}}`,
		`{"workload":"comd-lite","seed":3,"insts":20000,"observer":{"kind":"branch-mix"}}`,
	}
	for _, spec := range specs {
		replayed := postShard(t, srv.URL, spec)
		generated := postShard(t, plain.URL, spec)
		if string(replayed["result"]) != string(generated["result"]) {
			t.Errorf("replayed worker result differs from generated:\nreplayed:  %s\ngenerated: %s",
				replayed["result"], generated["result"])
		}
	}

	st := traceStats(t, srv.URL)
	if !st.Enabled {
		t.Fatal("trace stats report disabled")
	}
	if st.Stats.Misses != 1 {
		t.Errorf("trace store generated %d times for one coordinate, want exactly 1", st.Stats.Misses)
	}
	if st.Stats.Hits != 1 {
		t.Errorf("trace store hits = %d, want 1 (the second observer replays)", st.Stats.Hits)
	}
	if st.Stats.Bytes == 0 {
		t.Error("trace store reports zero resident bytes with a materialized trace")
	}
}

// TestWorkerTraceDirWarmRestart is the -trace-dir story across processes:
// a fresh worker over the same directory serves the coordinate from disk
// without regenerating.
func TestWorkerTraceDirWarmRestart(t *testing.T) {
	dir := t.TempDir()
	first, _ := tracedServer(t, dir)
	spec := `{"workload":"xalan-lite","seed":9,"insts":20000,"observer":{"kind":"bbl"}}`
	want := postShard(t, first.URL, spec)

	second, _ := tracedServer(t, dir)
	got := postShard(t, second.URL, spec)
	if string(got["result"]) != string(want["result"]) {
		t.Errorf("restarted worker's replayed result differs:\nfirst:  %s\nsecond: %s", want["result"], got["result"])
	}
	st := traceStats(t, second.URL)
	if st.Stats.Misses != 0 || st.Stats.DiskHits != 1 {
		t.Errorf("warm-restart trace stats = %+v, want 0 misses and 1 disk hit", st.Stats)
	}
}
