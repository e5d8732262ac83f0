// Command simd serves the declarative run API over HTTP: clients POST a
// sim Spec and receive a sim/v1 report. All requests share one
// sim.Session, so workload programs are compiled once per process and
// concurrent runs execute against the same warm cache — the serving shape
// the ROADMAP's production-scale target builds on.
//
// The process is also the worker half of the dispatch layer: POST
// /v1/shards runs one unit of an expanded grid — an array of shard specs,
// streamed once per trace coordinate for all its members — and returns one
// wire record per member, which a front door (a simd started with
// -backends, or any sim.Session routed through a dispatch.Dispatcher)
// decodes and folds into the same bit-identical Report an all-local run
// produces. -worker
// trims the surface to exactly that role: the run and sweep endpoints are
// withheld so a fleet worker cannot be used as an accidental coordinator.
//
// Coordinator mode additionally serves the async sweep API
// (internal/sim/sweep): POST /v1/sweeps returns a sweep ID immediately,
// the sweep executes in the background under per-tenant deficit
// round-robin fair queueing, and clients poll its status (state and shard
// counts; the shards themselves arrive only in the final report) and fetch
// the final report — byte-identical to what POST /v1/runs would have
// returned for the same spec, up to timing fields. Admission control bounds each
// tenant's queue depth (-queue-depth; beyond it submits get 429 with
// Retry-After) and coordinator-wide concurrency (-max-running); terminal
// sweeps stay pollable for -retain. The tenant is named by the ?tenant=
// query parameter or X-Tenant header ("default" when absent).
//
// With -backends the coordinator's shard grids are computed on remote simd
// workers instead of the local pool, sharing one dispatcher across all
// sweeps and runs; the session resolves every grid against its one shard
// cache first, so concurrent tenants sweeping overlapping grids
// deduplicate each other's work and only misses travel.
//
// Endpoints:
//
//	POST   /v1/runs             execute a Spec synchronously, respond with the report (coordinator mode only)
//	POST   /v1/sweeps           submit a Spec asynchronously, respond 202 with the sweep status (coordinator mode only)
//	GET    /v1/sweeps           list sweeps, optionally filtered by ?tenant= (coordinator mode only)
//	GET    /v1/sweeps/{id}      sweep status: state, timestamps, shard progress counts (coordinator mode only)
//	GET    /v1/sweeps/{id}/result  the final report; 409 until the sweep is terminal (coordinator mode only)
//	DELETE /v1/sweeps/{id}      cancel a queued or running sweep (coordinator mode only)
//	POST   /v1/shards           execute one unit (an array of ShardSpecs), respond with one record per member
//	GET    /v1/stats            unified counters: shard cache, dispatcher (hedges, hedge_wins, probes, healthy backends), sweep queues
//	GET    /v1/workloads        list the built-in workloads
//	GET    /v1/predictors       list the predictor configurations with costs
//	GET    /v1/observers        list the observer kinds
//	GET    /v1/synth            the synth/v1 parameter grammar version and canonical defaults
//	GET    /healthz             liveness probe
//
// Every 4xx/5xx response carries the same JSON envelope:
// {"error": "...", "code": N} with the code mirroring the HTTP status.
//
// Every shard runs the compiled engine: a Spec's or ShardSpec's "engine"
// may be omitted or "compiled", and anything else is a 400 — the tree-walk
// reference engine is the tests' oracle, not a request option.
//
// Synthetic workloads need no server-side definition: a Spec (or
// ShardSpec) carries synth/v1 parameter sets inline, and both run
// endpoints build the exact program those canonical params describe.
// GET /v1/synth documents the knob defaults clients sweep from.
//
// Shard results are cached by content address (see internal/sim/shardcache):
// re-requesting a shard the process has already computed — common in
// characterization sweeps that revisit {workload x seed x config} grids —
// serves the stored record and marks the shard "cached" in responses.
// -cache-entries/-cache-bytes bound the in-memory tier (0 entries disables
// caching and refuses -cache-dir); -cache-dir adds a disk tier that survives restarts.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight runs (http.Server.Shutdown) before exiting, so killing a
// worker never truncates a shard response mid-body — a coordinator either
// gets a complete record or a connection error it fails over from. The
// sweep coordinator closes after the drain: queued sweeps land cancelled,
// running sweeps abort through context cancellation.
//
// Usage:
//
//	simd [-addr :8080] [-worker] [-workers N] [-max-insts 100000000]
//	     [-max-shards 4096] [-drain 30s]
//	     [-queue-depth 64] [-max-running 2] [-retain 15m]
//	     [-backends http://w1:8081,http://w2:8082] [-hedge]
//	     [-cache-entries 4096] [-cache-bytes 268435456] [-cache-dir DIR]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rebalance/internal/bpred"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/wire"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// maxSpecBytes bounds request bodies; a Spec is small, so anything larger
// is a client error.
const maxSpecBytes = 1 << 20

func main() {
	var (
		addrFlag      = flag.String("addr", ":8080", "listen address")
		workerFlag    = flag.Bool("worker", false, "worker mode: serve only the shard protocol (no /v1/runs, no /v1/sweeps)")
		workersFlag   = flag.Int("workers", runtime.GOMAXPROCS(0), "slots a run's grid is planned for and local pool size; with -backends, also the cap on backend calls in flight")
		maxInstsFlag  = flag.Int64("max-insts", 100_000_000, "reject specs with a larger per-shard instruction budget (0 = unlimited)")
		maxShardsFlag = flag.Int("max-shards", 4096, "reject specs expanding to more shards than this (0 = unlimited)")
		drainFlag     = flag.Duration("drain", 30*time.Second, "in-flight drain budget on SIGINT/SIGTERM")
		queueFlag     = flag.Int("queue-depth", 64, "sweep coordinator: max queued sweeps per tenant (beyond it submits get 429)")
		maxRunFlag    = flag.Int("max-running", 2, "sweep coordinator: max concurrently executing sweeps")
		retainFlag    = flag.Duration("retain", 15*time.Minute, "sweep coordinator: how long finished sweeps stay pollable")
		backendsFlag  = flag.String("backends", "", "comma-separated simd worker URLs; dispatch shard grids to them instead of the local pool")
		hedgeFlag     = flag.Bool("hedge", false, "with -backends, duplicate straggling units onto a second healthy worker; first result wins")
		cacheEntsFlag = flag.Int("cache-entries", 4096, "shard result cache: max in-memory entries (0 disables the cache)")
		cacheByteFlag = flag.Int64("cache-bytes", 256<<20, "shard result cache: max in-memory payload bytes")
		cacheDirFlag  = flag.String("cache-dir", "", "shard result cache: directory for the persistent disk tier (empty = memory only)")
	)
	flag.Parse()
	if *workerFlag && *backendsFlag != "" {
		log.Fatalf("simd: -worker and -backends are mutually exclusive: a fleet worker runs shards itself")
	}
	if *hedgeFlag && *backendsFlag == "" {
		log.Fatalf("simd: -hedge needs -backends: the local pool has no second worker to duplicate stragglers onto")
	}
	if *cacheEntsFlag <= 0 && *cacheDirFlag != "" {
		log.Fatalf("simd: -cache-dir needs -cache-entries above 0: the disk tier sits beneath the memory tier, which 0 entries disables")
	}
	sess := sim.NewSession(*workersFlag)
	sess.SetMaxShards(*maxShardsFlag)
	if *cacheEntsFlag > 0 {
		cache, err := shardcache.New(shardcache.Options{
			MaxEntries: *cacheEntsFlag,
			MaxBytes:   *cacheByteFlag,
			Dir:        *cacheDirFlag,
		})
		if err != nil {
			log.Fatalf("simd: %v", err)
		}
		sess.SetCache(cache)
	}
	cfg := serverConfig{sess: sess, maxInsts: *maxInstsFlag, worker: *workerFlag}
	if *backendsFlag != "" {
		backends, err := dispatch.ParseBackends(*backendsFlag, dispatch.DefaultClient())
		if err != nil {
			log.Fatalf("simd: %v", err)
		}
		// The session resolves every grid against the process's shard cache
		// before its runner sees a unit, so a dispatched run's results are
		// cached (and served) by the same content addresses the local path
		// uses, and sweeps from different tenants deduplicate through one
		// tier. The dispatcher only computes the misses.
		d, err := dispatch.New(backends, dispatch.Options{
			MaxInFlight: *workersFlag,
			Hedge:       *hedgeFlag,
		})
		if err != nil {
			log.Fatalf("simd: %v", err)
		}
		sess.SetRunner(d)
		cfg.dispatcher = d
	}
	if !*workerFlag {
		coord, err := sweep.New(sweep.Options{
			Run:        sess.Run,
			QueueDepth: *queueFlag,
			MaxRunning: *maxRunFlag,
			Retain:     *retainFlag,
			MaxShards:  *maxShardsFlag,
		})
		if err != nil {
			log.Fatalf("simd: %v", err)
		}
		cfg.coord = coord
	}
	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	mode := "coordinator"
	if *workerFlag {
		mode = "worker"
	}
	log.Printf("simd: %s listening on %s (%d workers)", mode, ln.Addr(), *workersFlag)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: newServer(cfg)}
	if err := serve(ctx, srv, ln, *drainFlag); err != nil {
		log.Fatalf("simd: %v", err)
	}
	if cfg.coord != nil {
		cfg.coord.Close()
	}
	log.Printf("simd: drained, exiting")
}

// serve runs srv on ln until ctx is cancelled (a shutdown signal), then
// drains in-flight requests via http.Server.Shutdown, bounded by the
// drain budget. Split from main so the shutdown path has an httptest-style
// regression test.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; reaching here means the listener broke
		// before any shutdown signal.
		return err
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed by now
	return nil
}

// serverConfig wires the simd handler's collaborators. sess and maxInsts
// are always set; coord is the async sweep coordinator (nil in worker
// mode), and dispatcher is the shared remote-shard dispatcher (nil
// without -backends).
type serverConfig struct {
	sess       *sim.Session
	maxInsts   int64
	worker     bool
	coord      *sweep.Coordinator
	dispatcher *dispatch.Dispatcher
}

// newServer builds the simd handler. Worker mode withholds the
// coordinator surfaces (/v1/runs, /v1/sweeps) and serves only the shard
// protocol plus the name listings and stats. Split from main so tests
// drive it through httptest.
func newServer(cfg serverConfig) http.Handler {
	sess := cfg.sess
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{"cache": cacheStats(sess.Cache())}
		if cfg.dispatcher != nil {
			out["dispatch"] = cfg.dispatcher.Stats()
		}
		if cfg.coord != nil {
			out["sweeps"] = cfg.coord.Stats()
		}
		writeJSON(w, http.StatusOK, out)
	})
	if !cfg.worker {
		mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
			handleRun(w, r, sess, cfg.maxInsts)
		})
	}
	if cfg.coord != nil {
		mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
			handleSweepSubmit(w, r, cfg.coord, cfg.maxInsts)
		})
		mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]any{"sweeps": cfg.coord.List(r.URL.Query().Get("tenant"))})
		})
		mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			st, ok := cfg.coord.Get(id)
			if !ok {
				wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
				return
			}
			writeJSON(w, http.StatusOK, st)
		})
		mux.HandleFunc("GET /v1/sweeps/{id}/result", func(w http.ResponseWriter, r *http.Request) {
			handleSweepResult(w, r, cfg.coord)
		})
		mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			st, err := cfg.coord.Cancel(id)
			switch {
			case errors.Is(err, sweep.ErrNotFound):
				wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
			case errors.Is(err, sweep.ErrTerminal):
				wire.WriteError(w, http.StatusConflict, fmt.Errorf("sweep %q is already %s", id, st.State))
			case err != nil:
				wire.WriteError(w, http.StatusInternalServerError, err)
			default:
				writeJSON(w, http.StatusOK, st)
			}
		})
	}
	mux.Handle("POST "+dispatch.ShardsPath, dispatch.WorkerHandler(sess, cfg.maxInsts))
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"workloads": workload.Names()})
	})
	// The predictor listing is static; compute it once at startup instead
	// of instantiating full prediction tables per request.
	type pred struct {
		Name     string `json:"name"`
		CostBits int    `json:"cost_bits"`
	}
	var preds []pred
	for _, p := range bpred.StandardConfigs() {
		preds = append(preds, pred{Name: p.Name(), CostBits: p.CostBits()})
	}
	mux.HandleFunc("GET /v1/predictors", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"predictors": preds})
	})
	mux.HandleFunc("GET /v1/observers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"observers": sim.ObserverKinds()})
	})
	mux.HandleFunc("GET /v1/synth", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"version": synth.Version, "defaults": synth.Defaults()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return envelope(mux)
}

// cacheStats is the shard result cache's block of /v1/stats: whether the
// cache is configured, and its hit/miss/eviction counters and resident
// bytes, the gauges TestFleet cross-checks against shard counts.
func cacheStats(c *shardcache.Cache) map[string]any {
	if c == nil {
		return map[string]any{"enabled": false, "stats": shardcache.Stats{}}
	}
	return map[string]any{"enabled": true, "stats": c.Stats()}
}

// tenantOf names the requesting tenant: ?tenant= wins, then the X-Tenant
// header, then "default". Single-tenant clients never need to say it.
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// handleSweepSubmit is POST /v1/sweeps: decode and validate exactly like
// the synchronous run endpoint, then enqueue instead of executing. The
// 202 body is the initial status snapshot (carrying the sweep ID the
// client polls). Admission failures map to 429 + Retry-After; invalid
// specs to 400 before they ever occupy a queue slot.
func handleSweepSubmit(w http.ResponseWriter, r *http.Request, coord *sweep.Coordinator, maxInsts int64) {
	spec := decodeSpec(w, r, maxInsts)
	if spec == nil {
		return
	}
	st, err := coord.Submit(tenantOf(r), spec)
	switch {
	case errors.Is(err, sim.ErrInvalidSpec):
		wire.WriteError(w, http.StatusBadRequest, err)
	case errors.Is(err, sweep.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		wire.WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, sweep.ErrClosed):
		wire.WriteError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		wire.WriteError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleSweepResult is GET /v1/sweeps/{id}/result: the final report of a
// done sweep, 409 + Retry-After while the sweep is still queued or
// running (the poll loop's signal to come back), 410 for a cancelled
// sweep, and the terminal error as a 500 for a failed one.
func handleSweepResult(w http.ResponseWriter, r *http.Request, coord *sweep.Coordinator) {
	id := r.PathValue("id")
	rep, err := coord.Report(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, rep)
	case errors.Is(err, sweep.ErrNotFound):
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
	case errors.Is(err, sweep.ErrNotTerminal):
		w.Header().Set("Retry-After", "1")
		wire.WriteError(w, http.StatusConflict, fmt.Errorf("sweep %q has not finished", id))
	case errors.Is(err, sweep.ErrCancelled):
		// Terminal without a report: cancelled is the resource being gone,
		// anything else is the sweep's own failure.
		wire.WriteError(w, http.StatusGone, err)
	default:
		wire.WriteError(w, http.StatusInternalServerError, err)
	}
}

// decodeSpec reads a request's sim.Spec for both submit endpoints: a
// bounded body, strictly decoded, with the per-shard budget held to
// -max-insts. On failure it has already written the 400 envelope and
// returns nil.
func decodeSpec(w http.ResponseWriter, r *http.Request, maxInsts int64) *sim.Spec {
	var spec sim.Spec
	if err := wire.StrictDecode(http.MaxBytesReader(w, r.Body, maxSpecBytes), &spec); err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return nil
	}
	if maxInsts > 0 && spec.Insts > maxInsts {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("per-shard budget %d exceeds server limit %d", spec.Insts, maxInsts))
		return nil
	}
	return &spec
}

func handleRun(w http.ResponseWriter, r *http.Request, sess *sim.Session, maxInsts int64) {
	spec := decodeSpec(w, r, maxInsts)
	if spec == nil {
		return
	}
	rep, err := sess.Run(r.Context(), spec)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, sim.ErrInvalidSpec) {
			status = http.StatusBadRequest
		}
		wire.WriteError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before writing the header so an encoding failure can still
	// produce a 500 instead of a truncated 200.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// envelope wraps a handler so error responses produced outside our own
// wire.WriteError calls — ServeMux's plain-text 404s and 405s,
// MaxBytesReader's 413s — carry the same JSON envelope as everything else. Any 4xx/5xx
// whose Content-Type is not already JSON has its body replaced with
// {"error": <status text>, "code": N}; headers the original handler set
// (Allow on a 405, for instance) pass through untouched.
func envelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	wroteHeader bool
	intercepted bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if status >= 400 && !strings.Contains(w.Header().Get("Content-Type"), "application/json") {
		w.intercepted = true
		wire.WriteError(w.ResponseWriter, status, errors.New(http.StatusText(status)))
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercepted {
		// The original plain-text body is superseded by the envelope;
		// report it written so the handler unwinds normally.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}
