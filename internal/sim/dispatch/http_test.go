package dispatch_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
)

// stubWorker serves a fixed status and body for every shard request,
// counting the requests it sees — the cross-the-wire half of the
// dispatcher's blame rules.
func stubWorker(t *testing.T, status int, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestWorkerStatusBlameMapping is the satellite regression test: a
// worker's 400 — and its 413, the other verdict on the request itself —
// must decode back to sim.ErrInvalidSpec on the client so the never-retry
// rule holds across the wire, while 500/503 must stay ordinary retryable
// backend failures.
func TestWorkerStatusBlameMapping(t *testing.T) {
	cases := []struct {
		name        string
		status      int
		body        string
		wantInvalid bool
	}{
		{"400 json error", http.StatusBadRequest, `{"error":"sim: invalid spec: no workload"}`, true},
		{"400 opaque body", http.StatusBadRequest, `not json at all`, true},
		{"413", http.StatusRequestEntityTooLarge, `{"error":"shard array exceeds the worker's 1048576-byte request limit"}`, true},
		{"500", http.StatusInternalServerError, `{"error":"executor exploded"}`, false},
		{"503", http.StatusServiceUnavailable, `overloaded`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := stubWorker(t, tc.status, tc.body)
			_, err := dispatch.NewHTTPBackend(srv.URL, nil).RunShard(context.Background(), testSpec(1))
			if err == nil {
				t.Fatal("want error")
			}
			if got := errors.Is(err, sim.ErrInvalidSpec); got != tc.wantInvalid {
				t.Errorf("errors.Is(err, ErrInvalidSpec) = %v, want %v (err: %v)", got, tc.wantInvalid, err)
			}
		})
	}
}

// TestWorker400NotRetriedNotBlamed drives the stub through a full
// Dispatcher: a 400 or 413 response is never retried and leaves the backend
// healthy — rejecting an unservable request is the worker doing its job.
func TestWorker400NotRetriedNotBlamed(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge} {
		srv, calls := stubWorker(t, status, `{"error":"sim: invalid spec: bad shard"}`)
		d, err := dispatch.New([]dispatch.Backend{dispatch.NewHTTPBackend(srv.URL, nil)}, onVirtualTime())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); !errors.Is(err, sim.ErrInvalidSpec) {
				t.Fatalf("status %d: want ErrInvalidSpec, got %v", status, err)
			}
		}
		if got := calls.Load(); got != 4 {
			t.Errorf("worker saw %d requests for 4 runs answered %d, want 4 (no retries)", got, status)
		}
		if healthy := d.Healthy(); len(healthy) != 1 {
			t.Errorf("%d responses marked the worker dead: healthy = %v", status, healthy)
		}
	}
}

// TestWorker5xxRetriedAndBlamed: 500/503 responses burn the retry budget
// and count toward the worker's consecutive-failure death.
func TestWorker5xxRetriedAndBlamed(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusServiceUnavailable} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			srv, calls := stubWorker(t, status, `{"error":"transient"}`)
			d, err := dispatch.New([]dispatch.Backend{dispatch.NewHTTPBackend(srv.URL, nil)}, onVirtualTime())
			if err != nil {
				t.Fatal(err)
			}
			_, err = runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)})
			if err == nil || errors.Is(err, sim.ErrInvalidSpec) {
				t.Fatalf("want a retryable backend error, got %v", err)
			}
			if got := calls.Load(); got != 3 {
				t.Errorf("worker saw %d requests, want 3 (full attempt budget)", got)
			}
			if healthy := d.Healthy(); len(healthy) != 0 {
				t.Errorf("three %d responses left the worker healthy: %v", status, healthy)
			}
		})
	}
}

// TestWorkerBodyReadErrorIsRetryable pins the worker-side half of the
// blame fix: a request whose body dies mid-read must produce a 5xx (a
// retryable backend fault), never the 400 that would permanently fail the
// shard at the coordinator.
func TestWorkerBodyReadErrorIsRetryable(t *testing.T) {
	h := dispatch.WorkerHandler(sim.NewSession(1), 0)
	req := httptest.NewRequest(http.MethodPost, dispatch.ShardsPath, errReader{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusBadRequest {
		t.Fatalf("body read failure answered 400; the coordinator would map it to ErrInvalidSpec and never retry")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
}

// TestWorkerOversizeBodyIs413: a body over the worker's limit is refused as
// such — 413, naming the limit — not cut at the limit and answered 400 with
// the syntax error the cut produced.
func TestWorkerOversizeBodyIs413(t *testing.T) {
	h := dispatch.WorkerHandler(sim.NewSession(1), 0)
	spec, err := json.Marshal(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed array of valid members, just too many of them.
	body := "[" + strings.Repeat(string(spec)+",", (1<<20)/len(spec)+1) + string(spec) + "]"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, dispatch.ShardsPath, strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "1048576-byte") {
		t.Errorf("oversize body answered %d %s, want 413 naming the 1048576-byte limit", rec.Code, rec.Body)
	}
}

// TestWorkerKeepsCoordinatesApart: two members posted together that share
// workload and seed but not budget are two passes on the worker — each
// record reports at least its own budget and equals the shard posted alone.
func TestWorkerKeepsCoordinatesApart(t *testing.T) {
	b := dispatch.NewHTTPBackend(newWorker(t).URL, nil)
	short, long := testSpec(1), testSpec(1)
	long.Insts = 40_000
	specs := []sim.ShardSpec{short, long, short}
	out, err := b.RunShards(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("member %d: %v", i, o.Err)
		}
		alone, err := b.RunShard(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err1 := o.Shard.Result.EncodeJSON()
		want, err2 := alone.Result.EncodeJSON()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if o.Shard.Insts < specs[i].Insts || o.Shard.Insts != alone.Insts || string(got) != string(want) {
			t.Errorf("member %d (budget %d): %d insts, result %s; posted alone: %d insts, result %s",
				i, specs[i].Insts, o.Shard.Insts, got, alone.Insts, want)
		}
	}
}

// TestWorkerServesADuplicateMemberOnce: an array off the wire may name one
// shard twice. A caching worker computes it once — one cache miss — and
// answers both members with the same record, well inside the request's
// deadline, instead of leading the key a second time and waiting on itself
// until the deadline ends the request.
func TestWorkerServesADuplicateMemberOnce(t *testing.T) {
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(1)
	sess.SetCache(cache)
	body, err := json.Marshal([]sim.ShardSpec{testSpec(1), testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, dispatch.ShardsPath, strings.NewReader(string(body))).WithContext(ctx)
	dispatch.WorkerHandler(sess, 0).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("worker answered %d %s, want 200", rec.Code, rec.Body)
	}
	var recs []json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != string(recs[1]) || !strings.Contains(string(recs[0]), `"result"`) {
		t.Errorf("answer = %s, want two equal shard records", rec.Body)
	}
	if s := cache.Stats(); s.Misses != 1 {
		t.Errorf("cache stats = %+v, want the shard led (and computed) once", s)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, fmt.Errorf("connection reset") }

// countingWrapper counts the calls that reach the wrapped backend.
type countingWrapper struct {
	inner dispatch.Backend
	calls atomic.Int64
}

func (c *countingWrapper) Name() string { return c.inner.Name() }

func (c *countingWrapper) Probe(ctx context.Context) error { return c.inner.Probe(ctx) }

func (c *countingWrapper) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	c.calls.Add(1)
	return c.inner.RunShards(ctx, specs)
}

// cachedFront is a front session over d with its own result cache — the
// shape of simd -backends: the session resolves, the dispatcher computes
// the misses.
func cachedFront(t *testing.T, d *dispatch.Dispatcher, workers int) (*sim.Session, *shardcache.Cache) {
	t.Helper()
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(workers)
	sess.SetCache(cache)
	sess.SetRunner(d)
	return sess, cache
}

// TestDispatcherCacheServesRepeats: with the cache on the front session, a
// repeated grid costs zero backend calls on the second pass, shards come
// back marked Cached, and the results are byte-identical to the first pass.
func TestDispatcherCacheServesRepeats(t *testing.T) {
	w := newWorker(t)
	cb := &countingWrapper{inner: dispatch.NewHTTPBackend(w.URL, nil)}
	d, err := dispatch.New([]dispatch.Backend{cb}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	sess, cache := cachedFront(t, d, 2)
	spec := &sim.Spec{Workloads: []string{"comd-lite"}, SeedCount: 3, Insts: 5_000, Observers: []sim.ObserverSpec{{Kind: "bbl"}}}

	cold, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	coldCalls := cb.calls.Load()
	if coldCalls != 3 {
		t.Fatalf("cold pass made %d backend calls, want one per coordinate (3)", coldCalls)
	}
	warm, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.calls.Load(); got != coldCalls {
		t.Errorf("warm pass reached the backend %d more times, want 0", got-coldCalls)
	}
	for i := range warm.Shards {
		if !warm.Shards[i].Cached {
			t.Errorf("warm shard %d not marked cached", i)
		}
		if cold.Shards[i].Cached {
			t.Errorf("cold shard %d marked cached", i)
		}
		a, err1 := cold.Shards[i].Result.EncodeJSON()
		b, err2 := warm.Shards[i].Result.EncodeJSON()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(a) != string(b) {
			t.Errorf("shard %d: cached result differs from backend result", i)
		}
	}
	if s := cache.Stats(); s.Hits < 3 || s.Misses < 3 {
		t.Errorf("cache stats = %+v, want >= 3 hits and misses", s)
	}
}

// TestDispatcherCacheInvalidSpecStillFailsFast: the cache path must not
// swallow the ErrInvalidSpec contract.
func TestDispatcherCacheInvalidSpecStillFailsFast(t *testing.T) {
	b := &fakeBackend{name: "never"}
	d, err := dispatch.New([]dispatch.Backend{b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := cachedFront(t, d, 1)
	bad := &sim.Spec{Workloads: []string{"no-such"}, Insts: 5_000, Observers: []sim.ObserverSpec{{Kind: "bbl"}}}
	if _, err := sess.Run(context.Background(), bad); !errors.Is(err, sim.ErrInvalidSpec) {
		t.Fatalf("want ErrInvalidSpec, got %v", err)
	}
	if b.calls.Load() != 0 {
		t.Error("invalid spec reached a backend")
	}
}

// TestDispatcherCacheGoldenIdentical reruns the golden grid through a
// cache-backed front session over a dispatcher twice; both passes must
// render the repository golden bytes (the Cached marks are normalized like
// timing fields).
func TestDispatcherCacheGoldenIdentical(t *testing.T) {
	w := newWorker(t)
	d, err := dispatch.New([]dispatch.Backend{dispatch.NewHTTPBackend(w.URL, nil)}, withInFlight(onVirtualTime(), 4))
	if err != nil {
		t.Fatal(err)
	}
	sess, cache := cachedFront(t, d, 4)
	want := readGolden(t)
	for pass, label := range []string{"cold", "warm"} {
		got := runGolden(t, sess)
		if string(got) != string(want) {
			t.Errorf("%s cache-backed dispatch differs from the all-local golden;\ngot:\n%s", label, got)
		}
		if pass == 1 {
			if s := cache.Stats(); s.Hits == 0 {
				t.Errorf("warm pass reported no cache hits: %+v", s)
			}
		}
	}
}
