package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
)

// fakeCoord is the fake coordinator's server plus what it saw: the
// submitted spec, the report it served, status polls and DELETEs. onPoll,
// when set, runs inside every status poll before it is answered.
type fakeCoord struct {
	*httptest.Server
	polls, deletes atomic.Int32
	onPoll         func()

	mu     sync.Mutex
	spec   *sim.Spec
	total  int
	served []byte
	err    error // the run's, for a sweep that lands failed
}

// submitted returns the spec the client submitted and the report bytes the
// coordinator served for it.
func (fc *fakeCoord) submitted() (*sim.Spec, []byte) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.spec, fc.served
}

// fakeCoordinator serves the subset of the simd sweep API the client
// needs: submit runs the submitted spec on sess and returns an ID, the
// status endpoint reports running for a few polls before landing done (or
// failed, with the run's error), the result endpoint serves the marshalled
// report, and DELETE is counted. Faking the server (rather than standing
// up simd) keeps this a test of the client's protocol handling alone.
func fakeCoordinator(t *testing.T, sess *sim.Session, pollsUntilDone int32) *fakeCoord {
	t.Helper()
	const id = "sw-000001-0123456789ab"
	fc := &fakeCoord{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("tenant"); got != "bench-test" {
			t.Errorf("submit tenant %q, want bench-test", got)
		}
		var spec sim.Spec
		if err := wire.StrictDecode(r.Body, &spec); err != nil {
			t.Errorf("submit body does not decode as a spec: %v", err)
		}
		total, _ := spec.GridSize()
		rep, err := sess.Run(context.Background(), &spec)
		var enc []byte
		if err == nil {
			if enc, err = json.Marshal(rep); err != nil {
				t.Error(err)
			}
		}
		fc.mu.Lock()
		fc.spec, fc.total, fc.served, fc.err = &spec, total, enc, err
		fc.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{
			"id": id, "tenant": "bench-test", "state": "queued",
			"progress": map[string]int{"total_shards": total},
		})
	})
	mux.HandleFunc("GET /v1/sweeps/"+id, func(w http.ResponseWriter, r *http.Request) {
		n := fc.polls.Add(1)
		if fc.onPoll != nil {
			fc.onPoll()
		}
		fc.mu.Lock()
		total, runErr := fc.total, fc.err
		fc.mu.Unlock()
		st := map[string]any{"id": id, "tenant": "bench-test", "state": "running",
			"progress": map[string]int{"total_shards": total, "done_shards": int(n)}}
		switch {
		case n < pollsUntilDone:
		case runErr != nil:
			st["state"], st["error"] = "failed", runErr.Error()
		default:
			st["state"], st["progress"] = "done", map[string]int{"total_shards": total, "done_shards": total}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /v1/sweeps/"+id+"/result", func(w http.ResponseWriter, r *http.Request) {
		if fc.polls.Load() < pollsUntilDone {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]any{"error": "not terminal", "code": 409})
			return
		}
		_, served := fc.submitted()
		w.Header().Set("Content-Type", "application/json")
		w.Write(served)
	})
	mux.HandleFunc("DELETE /v1/sweeps/"+id, func(w http.ResponseWriter, r *http.Request) {
		fc.deletes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"id": id, "tenant": "bench-test", "state": "cancelled"})
	})
	fc.Server = httptest.NewServer(mux)
	t.Cleanup(fc.Close)
	return fc
}

// coordSpec is the small sweep the coordinator tests submit.
func coordSpec() *sim.Spec {
	return &sim.Spec{
		Workloads: []string{"comd-lite"},
		SeedCount: 2,
		Insts:     30_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)}},
	}
}

// TestRunCoordinatorSweep: the client submits, polls until done, fetches
// the result, and hands back the coordinator's report unchanged — it
// re-marshals to the bytes the coordinator served.
func TestRunCoordinatorSweep(t *testing.T) {
	coord := fakeCoordinator(t, sim.NewSession(2), 3)

	got, err := runCoordinatorSweep(context.Background(), coord.URL, "bench-test", coordSpec(), time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := coord.polls.Load(); n < 3 {
		t.Errorf("client fetched the result after %d polls, before the sweep was done", n)
	}
	if n := coord.deletes.Load(); n != 0 {
		t.Errorf("client sent %d DELETEs for a sweep it collected", n)
	}
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if _, b := coord.submitted(); string(a) != string(b) {
		t.Errorf("coordinator-fetched report is not the served one:\n got: %s\nwant: %s", a, b)
	}
}

// TestRunCoordinatorSweepPollsFirst: the first status read is immediate —
// the interval is waited only between polls — so a sweep the coordinator
// has already landed (a cached rerun) costs no poll interval at all.
func TestRunCoordinatorSweepPollsFirst(t *testing.T) {
	coord := fakeCoordinator(t, sim.NewSession(2), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := runCoordinatorSweep(ctx, coord.URL, "bench-test", coordSpec(), time.Hour, io.Discard); err != nil {
		t.Fatalf("sweep done at the first poll returned %v; the client waited out an interval first", err)
	}
}

// TestRunCoordinatorSweepCancel: cancelling the client mid-poll (Ctrl-C)
// abandons the sweep with context.Canceled and tells the coordinator to
// stop working on it — exactly one DELETE, sent although the client's own
// context is already dead.
func TestRunCoordinatorSweepCancel(t *testing.T) {
	coord := fakeCoordinator(t, sim.NewSession(2), 1<<30) // never lands
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.onPoll = func() {
		if coord.polls.Load() == 2 {
			cancel()
		}
	}
	rep, err := runCoordinatorSweep(ctx, coord.URL, "bench-test", coordSpec(), time.Millisecond, io.Discard)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned (%v, %v), want context.Canceled", rep, err)
	}
	if n := coord.deletes.Load(); n != 1 {
		t.Errorf("coordinator saw %d DELETEs for the abandoned sweep, want exactly 1", n)
	}
}

// TestRunCoordinatorSweepFailures: submit rejections surface the
// envelope's message, a sweep landing failed is an error naming the
// terminal state, and a status body carrying a field sweep.Status lacks is
// an error naming that field.
func TestRunCoordinatorSweepFailures(t *testing.T) {
	spec := &sim.Spec{Workloads: []string{"comd-lite"}, Insts: 1000, Observers: []sim.ObserverSpec{{Kind: "bbl"}}}

	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{"error": "tenant queue full", "code": 429})
	}))
	defer rejecting.Close()
	if _, err := runCoordinatorSweep(context.Background(), rejecting.URL, "t", spec, time.Millisecond, io.Discard); err == nil || !strings.Contains(err.Error(), "tenant queue full") {
		t.Errorf("429 submit: error %v, want the envelope message surfaced", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "sw-000002-0123456789ab", "state": "queued"})
	})
	mux.HandleFunc("GET /v1/sweeps/sw-000002-0123456789ab", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"id": "sw-000002-0123456789ab", "state": "failed", "error": "engine exploded",
		})
	})
	failing := httptest.NewServer(mux)
	defer failing.Close()
	if _, err := runCoordinatorSweep(context.Background(), failing.URL, "t", spec, time.Millisecond, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "failed") || !strings.Contains(err.Error(), "engine exploded") {
		t.Errorf("failed sweep: error %v, want terminal state and message", err)
	}

	mux = http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "sw-000003-0123456789ab", "state": "queued"})
	})
	mux.HandleFunc("GET /v1/sweeps/sw-000003-0123456789ab", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"id": "sw-000003-0123456789ab", "state": "done", "shards_so_far": []any{},
		})
	})
	drifted := httptest.NewServer(mux)
	defer drifted.Close()
	if _, err := runCoordinatorSweep(context.Background(), drifted.URL, "t", spec, time.Millisecond, io.Discard); err == nil ||
		!strings.Contains(err.Error(), `unknown field "shards_so_far"`) {
		t.Errorf("status with an unknown field: error %v, want it named", err)
	}
}
