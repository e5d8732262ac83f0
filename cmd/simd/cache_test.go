package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rebalance/internal/sim"
	"rebalance/internal/sim/shardcache"
)

// cachedServer stands up a simd handler whose session has a shard result
// cache, the way main wires it with -cache-entries > 0.
func cachedServer(t *testing.T, worker bool) (*httptest.Server, *shardcache.Cache) {
	t.Helper()
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(2)
	sess.SetMaxShards(256)
	sess.SetCache(cache)
	srv := httptest.NewServer(newServer(serverConfig{sess: sess, maxInsts: 1_000_000, worker: worker}))
	t.Cleanup(srv.Close)
	return srv, cache
}

// cacheStatsResp is the "cache" block of GET /v1/stats.
type cacheStatsResp struct {
	Enabled bool             `json:"enabled"`
	Stats   shardcache.Stats `json:"stats"`
}

// getCacheStats fetches /v1/stats and returns its shard-cache block.
func getCacheStats(t *testing.T, srv *httptest.Server) cacheStatsResp {
	t.Helper()
	var got struct {
		Cache cacheStatsResp `json:"cache"`
	}
	getJSON(t, srv.URL+"/v1/stats", &got)
	return got.Cache
}

func TestCacheStatsDisabled(t *testing.T) {
	srv := testServer(t) // no cache configured
	if got := getCacheStats(t, srv); got.Enabled {
		t.Errorf("cache reported enabled on a cacheless session: %+v", got)
	}
}

// TestWorkerShardCacheWarmPass drives the worker protocol twice with one
// shard spec: the second response must be served from the cache (marked
// "cached", byte-identical result) and /v1/stats must account for the
// hit — the exact loop the CI cache smoke runs across processes.
func TestWorkerShardCacheWarmPass(t *testing.T) {
	srv, _ := cachedServer(t, true)
	spec := `{"workload":"comd-lite","seed":3,"insts":20000,"observer":{"kind":"bbl"}}`

	post := func() map[string]json.RawMessage { return postShard(t, srv.URL, spec) }

	cold, warm := post(), post()
	if _, ok := cold["cached"]; ok {
		t.Error("cold shard response carries a cached mark")
	}
	if string(warm["cached"]) != "true" {
		t.Errorf(`warm shard response "cached" = %s, want true`, warm["cached"])
	}
	if string(cold["result"]) != string(warm["result"]) {
		t.Errorf("cached result differs from cold result:\ncold: %s\nwarm: %s", cold["result"], warm["result"])
	}

	stats := getCacheStats(t, srv)
	if !stats.Enabled {
		t.Fatal("cache stats report disabled")
	}
	if stats.Stats.Hits < 1 || stats.Stats.Misses < 1 {
		t.Errorf("stats = %+v, want >=1 hit and >=1 miss", stats.Stats)
	}
}

// TestRunEndpointUsesCache checks the coordinator endpoint benefits too:
// the second identical /v1/runs request comes back fully cache-served.
func TestRunEndpointUsesCache(t *testing.T) {
	srv, cache := cachedServer(t, false)
	spec := `{"workloads":["comd-lite"],"seed_count":2,"insts":20000,
		"observers":[{"kind":"bpred","options":{"configs":["gshare-small"]}}]}`

	post := func() []bool {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader([]byte(spec)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var wire struct {
			Shards []struct {
				Cached bool `json:"cached"`
			} `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(wire.Shards))
		for i, sh := range wire.Shards {
			out[i] = sh.Cached
		}
		return out
	}

	for i, cached := range post() {
		if cached {
			t.Errorf("cold run shard %d marked cached", i)
		}
	}
	warm := post()
	if len(warm) != 2 {
		t.Fatalf("got %d shards, want 2", len(warm))
	}
	for i, cached := range warm {
		if !cached {
			t.Errorf("warm run shard %d not served from cache", i)
		}
	}
	if s := cache.Stats(); s.Hits < 2 {
		t.Errorf("stats = %+v, want >= 2 hits", s)
	}
}
