package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/tiercache"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// runMainEnv, when set, makes the test binary run simd's main instead of
// its tests: TestFleet re-executes itself this way to start real simd
// processes, with no build step and no test-only flag.
const runMainEnv = "SIMD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Args = append([]string{"simd"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// listening matches the line main logs once its listener is bound.
var listening = regexp.MustCompile(`simd: \w+ listening on (\S+) `)

// simd is one simd process re-executed from the test binary.
type simd struct {
	URL  string // http://127.0.0.1:port; empty when it exited without listening
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
	err  error         // the exit status; read after done

	mu     sync.Mutex
	stderr strings.Builder
}

// spawn starts `simd -addr 127.0.0.1:0 args...` and returns once the
// process logs its listening address or exits, whichever comes first.
// t.Cleanup kills it.
func spawn(t *testing.T, args ...string) *simd {
	t.Helper()
	p := &simd{
		cmd:  exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		done: make(chan struct{}),
	}
	p.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			p.mu.Lock()
			p.stderr.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.URL = "http://" + a
	case <-p.done:
	}
	return p
}

// startSimd is spawn for a process that must come up.
func startSimd(t *testing.T, args ...string) *simd {
	t.Helper()
	p := spawn(t, args...)
	if p.URL == "" {
		t.Fatalf("simd %v exited without listening (%v):\n%s", args, p.err, p.log())
	}
	return p
}

func (p *simd) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// kill is SIGKILL: the process dies wherever it is, mid-unit included.
func (p *simd) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stop is SIGTERM, the way an operator stops simd: it drains and exits 0.
func (p *simd) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-p.done
	if p.err != nil {
		t.Fatalf("simd did not drain cleanly (%v):\n%s", p.err, p.log())
	}
}

// relay is an in-test reverse proxy between a front door and one worker.
// Front doors are given relay URLs as -backends, so the test can point a
// relay at a restarted worker, and park a unit on its way in.
type relay struct {
	URL    string
	worker *simd // the process it forwards to; the test goroutine's alone
	target atomic.Pointer[url.URL]
	trap   atomic.Pointer[trap]
}

func newRelay(t *testing.T, w *simd) *relay {
	r := &relay{}
	r.point(t, w)
	rp := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) { pr.SetURL(r.target.Load()) },
		// A dead worker is a 502, which the dispatcher retries elsewhere.
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, _ error) { w.WriteHeader(http.StatusBadGateway) },
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.trap.Load()
		if tr == nil || req.URL.Path != dispatch.ShardsPath {
			rp.ServeHTTP(w, req)
			return
		}
		if tr.caught.CompareAndSwap(false, true) {
			tr.victim = r
			close(tr.parked)
			select {
			case <-tr.release:
			case <-req.Context().Done():
			}
			rp.ServeHTTP(w, req)
			return
		}
		rp.ServeHTTP(w, req)
		select {
		case tr.landed <- struct{}{}:
		default:
		}
	}))
	t.Cleanup(srv.Close)
	r.URL = srv.URL
	return r
}

func (r *relay) point(t *testing.T, w *simd) {
	u, err := url.Parse(w.URL)
	if err != nil {
		t.Fatal(err)
	}
	r.worker = w
	r.target.Store(u)
}

// trap parks the first unit any armed relay receives until free is called.
// While it is parked the sweep cannot finish, so a worker killed then is
// killed mid-sweep by construction, not by winning a race.
type trap struct {
	caught  atomic.Bool
	victim  *relay        // the relay that caught the unit; written before parked closes
	parked  chan struct{} // closed once a unit is parked
	landed  chan struct{} // another unit came back through an armed relay
	release chan struct{}
	free    func() // closes release, once
}

// arm sets a trap on the given relays.
func arm(t *testing.T, relays ...*relay) *trap {
	tr := &trap{parked: make(chan struct{}), landed: make(chan struct{}, 1), release: make(chan struct{})}
	tr.free = sync.OnceFunc(func() { close(tr.release) })
	t.Cleanup(tr.free)
	for _, r := range relays {
		r.trap.Store(tr)
		t.Cleanup(func() { r.trap.Store(nil) })
	}
	return tr
}

// killMidSweep waits until the trap holds a unit and another unit has
// landed, kills the worker holding the parked one, then releases it: the
// parked unit is forwarded to a dead worker and fails over.
func (tr *trap) killMidSweep() *relay {
	<-tr.parked
	<-tr.landed
	tr.victim.worker.kill()
	tr.free()
	return tr.victim
}

// submitSweep posts a spec to the front door's async API as tenant, the
// way rebalance-bench -coordinator does, and returns the sweep ID.
func submitSweep(t *testing.T, base, tenant, spec string) string {
	t.Helper()
	resp := doReq(t, http.MethodPost, base+"/v1/sweeps?tenant="+tenant, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit as %s: status %d: %s", tenant, resp.StatusCode, msg)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// sweepResult waits for sweep id to land done and returns its report body.
func sweepResult(t *testing.T, base, id string) []byte {
	t.Helper()
	if st := pollSweep(t, base, id); string(st["state"]) != `"done"` {
		t.Fatalf("sweep %s landed %s: %s", id, st["state"], st["error"])
	}
	resp := doReq(t, http.MethodGet, base+"/v1/sweeps/"+id+"/result", "")
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: status %d, %v: %s", id, resp.StatusCode, err, raw)
	}
	return raw
}

func sweepVia(t *testing.T, base, tenant string, spec *sim.Spec) []byte {
	t.Helper()
	return sweepResult(t, base, submitSweep(t, base, tenant, specJSON(t, spec)))
}

func specJSON(t *testing.T, spec *sim.Spec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localRun runs spec on a fresh session of this process.
func localRun(t *testing.T, spec *sim.Spec) *sim.Report {
	t.Helper()
	rep, err := sim.NewSession(2).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers < 1 {
		t.Fatalf("local run reports no pool: workers %d", rep.Workers)
	}
	return rep
}

// fleetStats is the part of GET /v1/stats TestFleet reads.
type fleetStats struct {
	Cache struct {
		Stats tiercache.Stats `json:"stats"`
	} `json:"cache"`
	Traces struct {
		Enabled bool            `json:"enabled"`
		Stats   tiercache.Stats `json:"stats"`
	} `json:"traces"`
	Dispatch struct {
		Healthy []string `json:"healthy"`
	} `json:"dispatch"`
	Sweeps struct {
		Tenants map[string]sweep.TenantStats `json:"tenants"`
	} `json:"sweeps"`
}

func statsOf(t *testing.T, p *simd) fleetStats {
	t.Helper()
	var st fleetStats
	getJSON(t, p.URL+"/v1/stats", &st)
	return st
}

// registered is the grid `rebalance-bench -seeds N -insts 50000` sweeps:
// every registered workload, every predictor configuration.
func registered(seeds int) *sim.Spec {
	return &sim.Spec{
		Workloads: workload.Names(),
		SeedCount: seeds,
		Insts:     50_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred"}},
	}
}

// synthGrid is the grid `rebalance-bench -seeds 2 -insts 50000 -synth
// bias=0.6,0.8,0.95` sweeps: three inline scenarios, which the front door
// and its workers build from the spec alone.
func synthGrid() *sim.Spec {
	spec := &sim.Spec{SeedCount: 2, Insts: 50_000, Observers: []sim.ObserverSpec{{Kind: "bpred"}}}
	for _, b := range []float64{0.6, 0.8, 0.95} {
		p := synth.Params{Name: fmt.Sprintf("synth-bias%v", b), BiasedFrac: b, CorrelatedFrac: (1 - b) * 2 / 3, NoisyFrac: (1 - b) / 3}
		spec.Workloads = append(spec.Workloads, p.Name)
		spec.Synth = append(spec.Synth, p)
	}
	return spec
}

// sevenKinds crosses every observer kind, so every result kind crosses two
// process boundaries (worker -> front door -> client). Its two bpred
// cells per workload are cells of registered(2).
const sevenKinds = `{"workloads": ["comd-lite", "xalan-lite"], "seed_count": 1, "insts": 50000,
	"observers": [{"kind": "bpred", "options": {"configs": ["gshare-small", "tage-small"]}},
		{"kind": "btb", "options": {"geometries": [{"entries": 512, "ways": 4}]}},
		{"kind": "icache", "options": {"geometries": [{"size_kb": 16, "line_bytes": 64, "ways": 4}]}},
		{"kind": "branch-mix"}, {"kind": "bias"}, {"kind": "footprint"}, {"kind": "bbl"}]}`

// TestFleet is the remote path end to end over real processes: simd
// workers behind a simd front door, each started by re-executing this test
// binary, the front door reaching each worker through a relay. A spec's
// report is the same, after Stripped, however it runs: local, dispatched,
// cached, from a restarted front door's disk tier, with a worker killed
// mid-sweep, degraded, or replayed from a worker's trace store.
//
// The subtests after refusals share one fleet and run in order: counters
// and restart read what grids and kinds left in the front door's cache, so
// run TestFleet whole. Two local sweeps of one spec agreeing is
// rebalance-bench's TestSynthSweepDispatchedAndDeterministic and
// internal/sim's TestReportGolden, so no leg repeats it.
func TestFleet(t *testing.T) {
	t.Run("refusals", func(t *testing.T) {
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"-worker", "-backends", "http://127.0.0.1:1"}, "-worker and -backends are mutually exclusive"},
			{[]string{"-hedge"}, "-hedge needs -backends"},
			{[]string{"-cache-entries", "0", "-cache-dir", t.TempDir()}, "-cache-dir needs -cache-entries"},
		} {
			p := spawn(t, tc.args...)
			if p.URL != "" {
				t.Errorf("simd %v listened on %s instead of refusing to start", tc.args, p.URL)
				continue
			}
			var exit *exec.ExitError
			if !errors.As(p.err, &exit) || exit.ExitCode() == 0 || !strings.Contains(p.log(), tc.want) {
				t.Errorf("simd %v: exit %v, stderr %q; want a non-zero exit naming %q", tc.args, p.err, p.log(), tc.want)
			}
		}
	})

	// Only the front door caches: every shard a worker is sent, it computes.
	var relays []*relay
	var backends []string
	for range 3 {
		r := newRelay(t, startSimd(t, "-worker", "-cache-entries", "0"))
		relays = append(relays, r)
		backends = append(backends, r.URL)
	}
	fleet := strings.Join(backends, ",")
	cacheDir := t.TempDir()
	front := startSimd(t, "-backends", fleet, "-max-running", "1", "-cache-dir", cacheDir)
	localReg := render(t, localRun(t, registered(2)))

	t.Run("grids", func(t *testing.T) {
		// Each grid through the front door as tenant a, then as tenant b,
		// whom a's results serve from the shared cache.
		for _, g := range []struct {
			name   string
			spec   func() *sim.Spec
			shards int
			local  string
		}{
			{"registered", func() *sim.Spec { return registered(2) }, 2 * 2 * 9, localReg},
			{"synth", synthGrid, 3 * 2 * 9, render(t, localRun(t, synthGrid()))},
		} {
			for _, tenant := range []string{"a", "b"} {
				raw := sweepVia(t, front.URL, tenant, g.spec())
				rep := decodeReport(t, raw)
				if len(rep.Shards) != g.shards || rep.Workers != 0 {
					t.Errorf("%s as %s: %d shards, workers %d; want %d shards and workers 0", g.name, tenant, len(rep.Shards), rep.Workers, g.shards)
				}
				if render(t, rep) != g.local {
					t.Errorf("%s as %s differs from the local sweep", g.name, tenant)
				}
				for _, sh := range rep.Shards {
					if tenant == "b" && !sh.Cached {
						t.Errorf("%s as b: shard %s was not cached", g.name, cell(sh.Workload, sh.Seed, sh.Observer))
					}
				}
			}
		}
	})

	t.Run("kinds", func(t *testing.T) {
		async := sweepResult(t, front.URL, submitSweep(t, front.URL, "kinds", sevenKinds))
		resp := doReq(t, http.MethodPost, front.URL+"/v1/runs", sevenKinds)
		syncRaw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("sync run: status %d, %v", resp.StatusCode, err)
		}
		rep := decodeReport(t, async)
		kinds := map[string]bool{}
		for _, sh := range rep.Shards {
			if sh.Result == nil {
				t.Errorf("shard %s has no result", cell(sh.Workload, sh.Seed, sh.Observer))
			}
			kinds[strings.Split(sh.Observer, "/")[0]] = true
		}
		want := map[string]bool{"bpred": true, "btb": true, "icache": true, "branch-mix": true, "bias": true, "footprint": true, "bbl": true}
		if len(rep.Shards) != 2*8 || !maps.Equal(kinds, want) {
			t.Errorf("async sweep: %d shards over kinds %v; want 16 over all seven", len(rep.Shards), kinds)
		}
		if render(t, rep) != normalizeReport(t, syncRaw) {
			t.Error("async sweep differs from the sync run")
		}
	})

	t.Run("counters", func(t *testing.T) {
		// Each distinct shard was computed once: the kinds grid's two bpred
		// cells per workload are the registered grid's.
		st := statsOf(t, front)
		misses, hits := int64(2*2*9+3*2*9+2*6), int64(2*2*9+3*2*9+2*2+2*8)
		if c := st.Cache.Stats; c.Misses != misses || c.Hits != hits {
			t.Errorf("cache stats %+v; want misses %d and hits %d", c, misses, hits)
		}
		if len(st.Dispatch.Healthy) != 3 {
			t.Errorf("healthy backends %v; want all 3", st.Dispatch.Healthy)
		}
		if ten := st.Sweeps.Tenants; ten["a"].Done != 2 || ten["b"].Done != 2 || ten["kinds"].Done != 1 {
			t.Errorf("tenant gauges %+v; want a and b done 2, kinds done 1", ten)
		}
	})

	t.Run("restart", func(t *testing.T) {
		// A restarted front door serves the registered grid from its disk tier.
		front.stop(t)
		again := startSimd(t, "-backends", fleet, "-cache-dir", cacheDir)
		if normalizeReport(t, sweepVia(t, again.URL, "c", registered(2))) != localReg {
			t.Error("the restarted front door's sweep differs from the local sweep")
		}
		if c := statsOf(t, again).Cache.Stats; c.Misses != 0 || c.DiskHits != 2*2*9 {
			t.Errorf("restart cache stats %+v; want misses 0 and disk hits %d", c, 2*2*9)
		}
		again.stop(t)
	})

	// With nothing cached: one worker dies mid-sweep (the report is still
	// the local one), then another does under allow_partial.
	chaos := startSimd(t, "-backends", fleet, "-cache-entries", "0", "-workers", "3")
	localChaos := localRun(t, registered(4))
	live := relays

	t.Run("kill/strict", func(t *testing.T) {
		tr := arm(t, live...)
		id := submitSweep(t, chaos.URL, "strict", specJSON(t, registered(4)))
		live = without(live, tr.killMidSweep())
		if normalizeReport(t, sweepResult(t, chaos.URL, id)) != render(t, localChaos) {
			t.Error("the sweep with a worker killed mid-run differs from the local sweep")
		}
	})

	t.Run("kill/partial", func(t *testing.T) {
		tr := arm(t, live...)
		spec := registered(4)
		spec.AllowPartial = true
		id := submitSweep(t, chaos.URL, "partial", specJSON(t, spec))
		tr.killMidSweep()
		rep := decodeReport(t, sweepResult(t, chaos.URL, id)).Stripped()

		// Survivors and failed shards partition the grid, and every survivor
		// is the local run's shard.
		want := map[string]string{}
		for _, sh := range localChaos.Stripped().Shards {
			want[cell(sh.Workload, sh.Seed, sh.Observer)] = marshal(t, sh)
		}
		seen := map[string]bool{}
		for _, sh := range rep.Shards {
			c := cell(sh.Workload, sh.Seed, sh.Observer)
			if marshal(t, sh) != want[c] {
				t.Errorf("survivor %s differs from the local run", c)
			}
			seen[c] = true
		}
		for _, f := range rep.FailedShards {
			c := cell(f.Workload, f.Seed, f.Observer)
			if seen[c] || want[c] == "" {
				t.Errorf("failed shard %s is a survivor too, or no cell of the grid", c)
			}
			seen[c] = true
		}
		if len(seen) != len(want) {
			t.Errorf("survivors and failed shards cover %d of the grid's %d cells", len(seen), len(want))
		}
		t.Logf("%d survivors, %d failed of %d after two kills", len(rep.Shards), len(rep.FailedShards), len(want))
	})

	t.Run("replay", func(t *testing.T) {
		// A worker with the result cache off and the trace store on, behind
		// a front door that caches nothing, driven twice: the stream is
		// generated once per (workload, seed) coordinate however many
		// observers, units and passes consume it.
		traceDir := t.TempDir()
		workerArgs := []string{"-worker", "-cache-entries", "0", "-trace-entries", "16", "-trace-dir", traceDir}
		r := newRelay(t, startSimd(t, workerArgs...))
		door := startSimd(t, "-backends", r.URL, "-cache-entries", "0")
		coords := int64(len(workload.Names()) * 2)

		cold := decodeReport(t, sweepVia(t, door.URL, "bench", registered(2)))
		warm := decodeReport(t, sweepVia(t, door.URL, "bench", registered(2)))
		if cold.Workers != 0 {
			t.Error("front-door run not marked by workers: 0")
		}
		if render(t, cold) != localReg || render(t, warm) != localReg {
			t.Error("a replayed sweep differs from the local sweep")
		}
		tr := statsOf(t, r.worker).Traces
		// The store holds each coordinate as its trr1 records: at most 4
		// bytes per instruction held.
		if s := tr.Stats; !tr.Enabled || s.Misses != coords || s.Hits < coords || int64(s.Entries) != coords || s.Bytes > 4*coords*50_000 {
			t.Errorf("trace stats %+v (enabled %v); want %d misses and entries, at least as many hits, at most %d bytes", s, tr.Enabled, coords, 4*coords*50_000)
		}

		// A fresh worker over the same -trace-dir serves every coordinate
		// from the disk tier, regenerating nothing.
		r.worker.stop(t)
		r.point(t, startSimd(t, workerArgs...))
		if normalizeReport(t, sweepVia(t, door.URL, "bench", registered(2))) != localReg {
			t.Error("the disk-warm restarted sweep differs from the local sweep")
		}
		if s := statsOf(t, r.worker).Traces.Stats; s.Misses != 0 || s.DiskHits != coords {
			t.Errorf("restarted worker's trace stats %+v; want misses 0 and disk hits %d", s, coords)
		}
	})
}

// cell names a grid cell: workload, seed and observer configuration.
func cell(w string, seed uint64, observer string) string {
	return fmt.Sprintf("%s/%d/%s", w, seed, observer)
}

func marshal(t *testing.T, sh sim.Shard) string {
	t.Helper()
	b, err := json.Marshal(sh)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func without(rs []*relay, r *relay) []*relay {
	var out []*relay
	for _, x := range rs {
		if x != r {
			out = append(out, x)
		}
	}
	return out
}
