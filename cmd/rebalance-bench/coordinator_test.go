package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/wire"
)

// frontDoor is a real sweep coordinator behind the one endpoint the client
// calls, answered the way simd's front door answers POST /v1/runs: the spec
// runs as a sweep the request waits on, a 103 names the sweep, the answer
// is its report or the error envelope, and a client that hangs up cancels
// the sweep. It keeps the tenant, spec and sweep ID of the last run it was
// sent and the bytes it served.
type frontDoor struct {
	*httptest.Server
	coord *sweep.Coordinator

	mu     sync.Mutex
	tenant string
	spec   *sim.Spec
	id     string
	served []byte
}

func newFrontDoor(t *testing.T, opts sweep.Options) *frontDoor {
	t.Helper()
	coord, err := sweep.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fd := &frontDoor{coord: coord}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		tenant := r.URL.Query().Get("tenant")
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		spec, err := sim.DecodeSpec(body)
		var rep *sim.Report
		if err == nil {
			rep, err = coord.Run(r.Context(), tenant, spec, func(st sweep.Status) {
				fd.mu.Lock()
				fd.id = st.ID
				fd.mu.Unlock()
				w.Header().Set("Location", "/v1/sweeps/"+st.ID)
				w.WriteHeader(http.StatusEarlyHints)
				w.Header().Del("Location")
			})
		}
		var enc []byte
		if err == nil {
			enc, err = json.Marshal(rep)
		}
		fd.mu.Lock()
		fd.tenant, fd.spec, fd.served = tenant, spec, enc
		fd.mu.Unlock()
		switch {
		case errors.Is(err, sim.ErrInvalidSpec):
			wire.WriteError(w, http.StatusBadRequest, err)
		case errors.Is(err, sweep.ErrQueueFull):
			wire.WriteError(w, http.StatusTooManyRequests, err)
		case err != nil:
			wire.WriteError(w, http.StatusInternalServerError, err)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(enc)
		}
	})
	fd.Server = httptest.NewServer(mux)
	t.Cleanup(fd.Close)
	// Closing the coordinator first lands every waiting run, so a failed
	// check never leaves fd.Close waiting on a handler.
	t.Cleanup(coord.Close)
	return fd
}

// sent returns the tenant, spec and sweep ID of the last run the front door
// was sent and the report bytes it served for it.
func (fd *frontDoor) sent() (string, *sim.Spec, string, []byte) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.tenant, fd.spec, fd.id, fd.served
}

// coordSpec is the small sweep the coordinator tests submit: 4 shards.
func coordSpec() *sim.Spec {
	return &sim.Spec{
		Workloads: []string{"comd-lite"},
		SeedCount: 2,
		Insts:     30_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)}},
	}
}

// TestRunCoordinatorSweep: the client runs the sweep with one POST
// /v1/runs and writes out the front door's report unchanged — it
// re-marshals to the bytes served. On the front door's 103 it logs one
// line, naming the sweep whose progress can be read, and the answered
// sweep takes no retention slot.
func TestRunCoordinatorSweep(t *testing.T) {
	fd := newFrontDoor(t, sweep.Options{Run: sim.NewSession(2).Run})
	o := testOptions("comd-lite", "", fd.URL+"/", false)
	_, rep, log := runSweep(t, o)

	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	tenant, _, id, served := fd.sent()
	if string(got) != string(served) {
		t.Errorf("written report is not the served one:\n got: %s\nwant: %s", got, served)
	}
	if tenant != "bench-test" {
		t.Errorf("front door ran the sweep as tenant %q, want bench-test", tenant)
	}
	want := fmt.Sprintf("rebalance-bench: running 18 shards on %s as tenant \"bench-test\"; progress: GET %s/v1/sweeps/%s\n", fd.URL, fd.URL, id)
	if log != want {
		t.Errorf("client logged %q, want %q", log, want)
	}
	if l := fd.coord.List(""); len(l) != 0 {
		t.Errorf("front door still lists %v after answering", l)
	}
}

// TestRunCoordinatorSweepCancel: cancelling the client (Ctrl-C) while the
// front door runs its sweep returns context.Canceled, and the hang-up
// reaches the sweep: its run sees its context end, and it lands cancelled.
func TestRunCoordinatorSweepCancel(t *testing.T) {
	started, ended := make(chan struct{}), make(chan struct{})
	fd := newFrontDoor(t, sweep.Options{Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
		close(started)
		<-ctx.Done()
		close(ended)
		return nil, ctx.Err()
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-started:
			cancel()
		case <-ctx.Done():
		}
	}()
	rep, err := runCoordinatorSweep(ctx, fd.URL, "bench-test", coordSpec(), io.Discard)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned (%v, %v), want context.Canceled", rep, err)
	}
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the front door's sweep still runs 10s after the client hung up")
	}
	fd.coord.Close()
	if l := fd.coord.List(""); len(l) != 1 || l[0].State != sweep.StateCancelled || l[0].Tenant != "bench-test" {
		t.Errorf("front door lists %+v, want the one bench-test sweep cancelled", l)
	}
}

// TestRunCoordinatorSweepFailures: the coordinator's 429 and 400 surface
// their envelopes' messages, a sweep that lands failed surfaces its error,
// and a 200 body carrying a field a report lacks is an error naming that
// field.
func TestRunCoordinatorSweepFailures(t *testing.T) {
	// One sweep held running, 4 shards and 2 merged entries charged 38,
	// leaves no room for another in tenant t's share of 2 × 4 + 32 = 40; a
	// run as tenant u, once it has landed, fails like every run here.
	gate := make(chan struct{})
	fd := newFrontDoor(t, sweep.Options{MaxShards: 4, Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, errors.New("engine exploded")
	}})
	held, err := fd.coord.Submit("t", coordSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCoordinatorSweep(context.Background(), fd.URL, "t", coordSpec(), io.Discard); err == nil ||
		!strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), `tenant "t" runs 38 of its 40`) {
		t.Errorf("full share: error %v, want the 429 envelope's message surfaced", err)
	}
	over := coordSpec()
	over.SeedCount = 3
	if _, err := runCoordinatorSweep(context.Background(), fd.URL, "u", over, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "6 shards exceed the limit 4") {
		t.Errorf("grid over MaxShards: error %v, want the 400 envelope's message surfaced", err)
	}
	close(gate)
	for st, _ := fd.coord.Get(held.ID); !st.State.Terminal(); st, _ = fd.coord.Get(held.ID) {
		runtime.Gosched()
	}
	if _, err := runCoordinatorSweep(context.Background(), fd.URL, "u", coordSpec(), io.Discard); err == nil ||
		!strings.Contains(err.Error(), "engine exploded") {
		t.Errorf("failed sweep: error %v, want its error surfaced", err)
	}

	drifted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"schema": "sim/v1", "shards_so_far": []}`))
	}))
	defer drifted.Close()
	if _, err := runCoordinatorSweep(context.Background(), drifted.URL, "t", coordSpec(), io.Discard); err == nil ||
		!strings.Contains(err.Error(), `unknown field "shards_so_far"`) {
		t.Errorf("report with an unknown field: error %v, want it named", err)
	}
}
