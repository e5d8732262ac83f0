// Command simd serves the declarative run API over HTTP: clients POST a
// sim Spec and receive a sim/v1 report. All requests share one
// sim.Session, so workload programs are compiled once per process and
// concurrent runs execute against the same warm cache — the serving shape
// the ROADMAP's production-scale target builds on.
//
// A server plays one of two roles. A front door (the default) owns a sweep
// coordinator (internal/sim/sweep), and every spec it runs goes through
// it: POST /v1/sweeps starts a sweep and returns its ID, and clients poll
// its status (state and shard counts; the shards arrive only in the final
// report) and fetch the report. POST /v1/runs is the same submit, waited
// on in the request: an interim 103 names the sweep (Location:
// /v1/sweeps/{id}), and a client that hangs up cancels it. Every sweep's
// units share the session's -workers slots, granted in deficit round-robin
// over tenants. A running sweep is charged its report's entries plus 32, a
// tenant's sweeps at most 2 × -max-shards + 32 and everything held twice
// that: a submit past either gets 429 with Retry-After. Terminal sweeps
// stay pollable for -retain. A done sweep's report is fetched once: the
// front door lets go of it then, or when a submit needs its room, and a
// client that lost it re-submits the spec, which the shard cache serves.
// The tenant is named by the ?tenant= query parameter ("default" when
// absent).
//
// A -worker has no coordinator and serves the worker half of the dispatch
// layer instead: POST /v1/shards runs one unit of an expanded grid — an
// array of shard specs, streamed once per trace coordinate for all its
// members — and returns one wire record per member, which a front door
// started with -backends (or any sim.Session routed through a
// dispatch.Dispatcher) decodes and folds into the same bit-identical
// Report an all-local run produces. A -worker given a flag only a front
// door reads (-backends, -hedge, -max-shards, -retain) refuses to start and
// names it.
//
// With -backends the front door's shard grids are computed on remote simd
// workers instead of the local pool, sharing one dispatcher across all
// sweeps; the session resolves every grid against its one shard cache
// first, so concurrent tenants sweeping overlapping grids deduplicate each
// other's work and only misses travel.
//
// Endpoints:
//
//	POST   /v1/runs             submit a Spec as a sweep and wait on it, respond with the report (front door only)
//	POST   /v1/sweeps           submit a Spec asynchronously, respond 202 with the sweep status (front door only)
//	GET    /v1/sweeps           list sweeps, optionally filtered by ?tenant= (front door only)
//	GET    /v1/sweeps/{id}      sweep status: state, timestamps, shard progress counts (front door only)
//	GET    /v1/sweeps/{id}/result  the final report, handed over once; 409 until the sweep is terminal, 410 once collected or released; a HEAD is 405 (front door only)
//	DELETE /v1/sweeps/{id}      cancel a running sweep (front door only)
//	POST   /v1/shards           execute one unit (an array of ShardSpecs), respond with one record per member (-worker only)
//	GET    /v1/stats            unified counters: shard cache, dispatcher (hedges, hedge_wins, probes, healthy backends), sweep gauges
//	GET    /v1/workloads        list the built-in workloads
//	GET    /v1/predictors       list the predictor configurations with costs
//	GET    /v1/observers        list the observer kinds
//	GET    /v1/synth            the synth/v1 parameter grammar version and canonical defaults
//	GET    /healthz             liveness probe
//
// Every 4xx/5xx response carries the same JSON envelope:
// {"error": "...", "code": N} with the code mirroring the HTTP status.
//
// Both submit endpoints admit a spec through one step: a body over 1 MiB
// is a 413, and a spec that does not decode or validate or asks for a
// per-shard budget over -max-insts is a 400. The coordinator then refuses
// a grid of more than -max-shards shards, a 400 as well.
//
// Every shard runs the compiled engine: a Spec's or ShardSpec's "engine"
// may be omitted or "compiled", and anything else is a 400 — the tree-walk
// reference engine is the tests' oracle, not a request option.
//
// Synthetic workloads need no server-side definition: a Spec (or
// ShardSpec) carries synth/v1 parameter sets inline, and both roles build
// the exact program those canonical params describe.
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
// in-flight requests (http.Server.Shutdown) before exiting, so killing a
// worker never truncates a shard response mid-body — a front door either
// gets a complete record or a connection error it fails over from — and a
// waiting /v1/runs request still gets its report. The sweep coordinator
// closes after the drain: running sweeps abort through context
// cancellation.
//
// Usage:
//
//	simd [-addr :8080] [-worker] [-workers N] [-max-insts 100000000]
//	     [-max-shards 4096] [-drain 30s] [-retain 15m]
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
	"io"
	"log"
	"net"
	"net/http"
	"os"
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
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}
}

// run is simd from its arguments to its drained exit: every startup
// failure — a flag conflict, a cache or backend that cannot be built, a
// listener that cannot bind — is its returned error, and main prints it
// and exits non-zero in one place.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag      = fs.String("addr", ":8080", "listen address")
		workerFlag    = fs.Bool("worker", false, "worker mode: serve only the shard protocol (no /v1/runs, no /v1/sweeps)")
		workersFlag   = fs.Int("workers", runtime.GOMAXPROCS(0), "units in flight across all runs, local or dispatched, granted to tenants in turn; also the slots a run's grid is planned for")
		maxInstsFlag  = fs.Int64("max-insts", 100_000_000, "reject specs with a larger per-shard instruction budget (0 = unlimited)")
		maxShardsFlag = fs.Int("max-shards", 4096, "reject specs expanding to more shards than this; it sizes a tenant's share of the front door's entry budget and the budget, twice that")
		drainFlag     = fs.Duration("drain", 30*time.Second, "in-flight drain budget on SIGINT/SIGTERM")
		retainFlag    = fs.Duration("retain", 15*time.Minute, "sweep coordinator: how long finished sweeps stay pollable")
		backendsFlag  = fs.String("backends", "", "comma-separated simd worker URLs; dispatch shard grids to them instead of the local pool")
		hedgeFlag     = fs.Bool("hedge", false, "with -backends, duplicate straggling units onto a second healthy worker; first result wins")
		cacheEntsFlag = fs.Int("cache-entries", 4096, "shard result cache: max in-memory entries (0 disables the cache)")
		cacheByteFlag = fs.Int64("cache-bytes", 256<<20, "shard result cache: max in-memory payload bytes")
		cacheDirFlag  = fs.String("cache-dir", "", "shard result cache: directory for the persistent disk tier (empty = memory only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	// A -worker refuses by name every flag only a front door reads, rather
	// than ignore it; Visit sees only the flags given, so a default is
	// never refused.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, name := range []string{"backends", "hedge", "max-shards", "retain"} {
		if *workerFlag && given[name] {
			return fmt.Errorf("-worker does not take -%s: only a front door reads it", name)
		}
	}
	switch {
	case *hedgeFlag && *backendsFlag == "":
		return errors.New("-hedge needs -backends: the local pool has no second worker to duplicate stragglers onto")
	case *cacheEntsFlag <= 0 && *cacheDirFlag != "":
		return errors.New("-cache-dir needs -cache-entries above 0: the disk tier sits beneath the memory tier, which 0 entries disables")
	case *maxShardsFlag <= 0:
		return errors.New("-max-shards must be at least 1: it sizes the front door's shard budget, so no grid is unlimited")
	}
	sess := sim.NewSession(*workersFlag)
	if *cacheEntsFlag > 0 {
		cache, err := shardcache.New(shardcache.Options{
			MaxEntries: *cacheEntsFlag,
			MaxBytes:   *cacheByteFlag,
			Dir:        *cacheDirFlag,
		})
		if err != nil {
			return err
		}
		sess.SetCache(cache)
	}
	cfg := serverConfig{sess: sess, maxInsts: *maxInstsFlag}
	if *backendsFlag != "" {
		backends, err := dispatch.ParseBackends(*backendsFlag, dispatch.DefaultClient(*workersFlag))
		if err != nil {
			return err
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
			return err
		}
		sess.SetRunner(d)
		cfg.dispatcher = d
	}
	if !*workerFlag {
		coord, err := sweep.New(sweep.Options{
			Run:       sess.Run,
			MaxShards: *maxShardsFlag,
			Retain:    *retainFlag,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		cfg.coord = coord
	}
	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return err
	}
	mode := "coordinator"
	if *workerFlag {
		mode = "worker"
	}
	logger := log.New(stderr, "", log.LstdFlags)
	logger.Printf("simd: %s listening on %s (%d workers)", mode, ln.Addr(), *workersFlag)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, &http.Server{Handler: newServer(cfg)}, ln, *drainFlag); err != nil {
		return err
	}
	logger.Printf("simd: drained, exiting")
	return nil
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

// serverConfig wires the simd handler's collaborators. sess is always
// set; maxInsts is the serving limit -max-insts (0 = unlimited); coord,
// the sweep coordinator, makes the server a front door (nil on a -worker)
// and holds -max-shards; dispatcher is the shared remote-shard dispatcher
// (nil without -backends).
type serverConfig struct {
	sess       *sim.Session
	maxInsts   int64
	coord      *sweep.Coordinator
	dispatcher *dispatch.Dispatcher
}

// newServer builds the simd handler. A front door (coord set) serves the
// run and sweep endpoints, a worker the shard protocol; both serve the
// name listings and stats. Split from main so tests drive it through
// httptest.
func newServer(cfg serverConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{"cache": cacheStats(cfg.sess.Cache())}
		if cfg.dispatcher != nil {
			out["dispatch"] = cfg.dispatcher.Stats()
		}
		if cfg.coord != nil {
			out["sweeps"] = cfg.coord.Stats()
		}
		writeJSON(w, http.StatusOK, out)
	})
	if cfg.coord == nil {
		mux.Handle("POST "+dispatch.ShardsPath, dispatch.WorkerHandler(cfg.sess, cfg.maxInsts))
	} else {
		mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
			if spec := cfg.admit(w, r); spec != nil {
				// The 103 names the sweep; the final answer's headers do not.
				rep, err := cfg.coord.Run(r.Context(), tenantOf(r), spec, func(st sweep.Status) {
					w.Header().Set("Location", "/v1/sweeps/"+st.ID)
					w.WriteHeader(http.StatusEarlyHints)
					w.Header().Del("Location")
				})
				writeOutcome(w, http.StatusOK, rep, err)
			}
		})
		mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
			if spec := cfg.admit(w, r); spec != nil {
				st, err := cfg.coord.Submit(tenantOf(r), spec)
				writeOutcome(w, http.StatusAccepted, st, err)
			}
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
		// Only a GET hands the report over; an encoding failure, a 500,
		// would recur on every fetch, so the hand-over loses nothing. A
		// HEAD, which the GET pattern would match, cannot answer without
		// taking the report, so it is refused and the status route serves.
		mux.HandleFunc("GET /v1/sweeps/{id}/result", func(w http.ResponseWriter, r *http.Request) {
			rep, err := cfg.coord.Report(r.PathValue("id"))
			writeOutcome(w, http.StatusOK, rep, err)
		})
		mux.HandleFunc("HEAD /v1/sweeps/{id}/result", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", http.MethodGet)
			wire.WriteError(w, http.StatusMethodNotAllowed, errors.New("a result is handed over once, by GET; GET /v1/sweeps/{id} polls its state"))
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

// tenantOf names the requesting tenant: ?tenant=, or "default" when it is
// absent. Single-tenant clients never need to say it.
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

// writeOutcome is the one answer of every endpoint that submits a sweep or
// serves its outcome: v with status ok, or the coordinator's error as its
// status (409 + Retry-After is the poll loop's signal to come back; a sweep
// that failed on an invalid spec, a worker's rejection say, is a 400; a
// report already handed over or released is a 410).
func writeOutcome(w http.ResponseWriter, ok int, v any, err error) {
	status := http.StatusInternalServerError
	switch {
	case err == nil:
		writeJSON(w, ok, v)
		return
	case errors.Is(err, sim.ErrInvalidSpec):
		status = http.StatusBadRequest
	case errors.Is(err, sweep.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, sweep.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, sweep.ErrNotTerminal):
		w.Header().Set("Retry-After", "1")
		status = http.StatusConflict
	case errors.Is(err, sweep.ErrCancelled), errors.Is(err, sweep.ErrReportGone):
		status = http.StatusGone
	case errors.Is(err, sweep.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	wire.WriteError(w, status, err)
}

// admit is the one admission step of both submit endpoints: it reads the
// bounded body, decodes and validates the spec, and holds it to
// -max-insts; the coordinator's Submit holds its grid to -max-shards. On
// failure admit has already answered — 413 for an oversize body, 400 for
// a spec that is invalid or over the limit — and returns nil.
func (cfg serverConfig) admit(w http.ResponseWriter, r *http.Request) *sim.Spec {
	body, ok := wire.ReadBody(w, r, maxSpecBytes)
	if !ok {
		return nil
	}
	spec, err := sim.DecodeSpec(body)
	switch {
	case err != nil:
		wire.WriteError(w, http.StatusBadRequest, err)
	case cfg.maxInsts > 0 && spec.Insts > cfg.maxInsts:
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("per-shard budget %d exceeds server limit %d", spec.Insts, cfg.maxInsts))
	default:
		return spec
	}
	return nil
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
// wire.WriteError calls — ServeMux's plain-text 404s and 405s — carry the
// same JSON envelope as everything else. Any 4xx/5xx
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
	if status < http.StatusOK { // an interim 1xx: the final status is still to come
		w.ResponseWriter.WriteHeader(status)
		return
	}
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
