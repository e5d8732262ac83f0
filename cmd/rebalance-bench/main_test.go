package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestParseWorkloads(t *testing.T) {
	good, err := parseWorkloads(" comd-lite , xalan-lite ")
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2 || good[0] != "comd-lite" || good[1] != "xalan-lite" {
		t.Errorf("parsed %v", good)
	}
	for _, tc := range []struct{ csv, want string }{
		{"", "empty workload"},
		{"comd-lite,", "empty workload"},
		{"comd-lite,,xalan-lite", "empty workload"},
		{"comd-lite,comd-lite", "duplicate workload"},
		{"comd-lite, comd-lite", "duplicate workload"},
	} {
		if _, err := parseWorkloads(tc.csv); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseWorkloads(%q): want error containing %q, got %v", tc.csv, tc.want, err)
		}
	}
}

// TestReportGolden pins the rebalance-bench/v1 JSON schema built on the
// sim layer, so drift breaks CI instead of silently corrupting what the
// CI smokes compare. Regenerate with -update after a deliberate
// change.
func TestReportGolden(t *testing.T) {
	sess := sim.NewSession(2)
	simRep, err := sess.Run(context.Background(), &sim.Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 2,
		Insts:     30_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport(simRep, false)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 seeds x 9 standard configs.
	if want := 2 * 2 * 9; len(rep.Shards) != want {
		t.Fatalf("got %d shards, want %d", len(rep.Shards), want)
	}
	if want := 2 * 9; len(rep.Aggregates) != want {
		t.Fatalf("got %d aggregates, want %d", len(rep.Aggregates), want)
	}

	// Zero environment- and timing-dependent fields; the rest is
	// deterministic.
	rep.GoVersion = ""
	rep.GOMAXPROCS = 0
	rep.Workers = 0
	rep.WallNS = 0
	rep.SweepMInstsPS = 0
	rep.PerWorkerMInstsPS = 0
	for i := range rep.Shards {
		rep.Shards[i].ElapsedNS = 0
		rep.Shards[i].MInstsPerSec = 0
	}
	for i := range rep.Aggregates {
		rep.Aggregates[i].MeanMInstsPS = 0
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "bench_v1.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/rebalance-bench -run TestReportGolden -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("rebalance-bench/v1 report drifted from golden file %s;\nif deliberate, regenerate with -update.\ngot:\n%s", golden, got)
	}
}

// TestBackendsDispatchMatchesLocal runs the same small sweep locally and
// dispatched across two in-process simd workers (-backends path) and
// checks the reports agree on every deterministic field.
func TestBackendsDispatchMatchesLocal(t *testing.T) {
	w1 := httptest.NewServer(dispatch.WorkerHandler(sim.NewSession(1), 0))
	defer w1.Close()
	w2 := httptest.NewServer(dispatch.WorkerHandler(sim.NewSession(1), 0))
	defer w2.Close()

	readReport := func(path string) report {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	normalize := func(path string) []byte {
		t.Helper()
		rep := readReport(path)
		rep.GoVersion = ""
		rep.GOMAXPROCS = 0
		rep.Workers = 0
		rep.Dispatched = false
		rep.WallNS = 0
		rep.SweepMInstsPS = 0
		rep.PerWorkerMInstsPS = 0
		for i := range rep.Shards {
			rep.Shards[i].ElapsedNS = 0
			rep.Shards[i].MInstsPerSec = 0
		}
		for i := range rep.Aggregates {
			rep.Aggregates[i].MeanMInstsPS = 0
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	dir := t.TempDir()
	localOut := filepath.Join(dir, "local.json")
	remoteOut := filepath.Join(dir, "remote.json")
	if err := run("comd-lite", "", 2, 20_000, 2, "", "", "bench", false, false, 0, "", localOut); err != nil {
		t.Fatal(err)
	}
	if err := run("comd-lite", "", 2, 20_000, 2, w1.URL+","+w2.URL, "", "bench", false, false, 0, "", remoteOut); err != nil {
		t.Fatal(err)
	}
	local, remote := normalize(localOut), normalize(remoteOut)
	if string(local) != string(remote) {
		t.Errorf("dispatched sweep differs from local sweep:\nlocal:\n%s\nremote:\n%s", local, remote)
	}

	// The dispatched-run labeling satellite: a dispatched report says so
	// explicitly, carries no local worker count, and never fabricates a
	// per-worker rate from the zero; the local report derives one from its
	// real pool.
	localRep, remoteRep := readReport(localOut), readReport(remoteOut)
	if localRep.Dispatched {
		t.Error("local sweep labeled dispatched")
	}
	if localRep.Workers < 1 || localRep.PerWorkerMInstsPS <= 0 {
		t.Errorf("local sweep: workers=%d per_worker=%v, want a real pool rate", localRep.Workers, localRep.PerWorkerMInstsPS)
	}
	if !remoteRep.Dispatched {
		t.Error("dispatched sweep not labeled dispatched")
	}
	if remoteRep.Workers != 0 || remoteRep.PerWorkerMInstsPS != 0 {
		t.Errorf("dispatched sweep: workers=%d per_worker=%v, want 0/0 (the concurrency belongs to the backends)",
			remoteRep.Workers, remoteRep.PerWorkerMInstsPS)
	}
}

// TestPerWorkerRateOnOneCoordinate: the per-worker rate divides by the pool
// the plan sized, not by the -workers request. A one-seed, one-workload
// sweep is a single stream coordinate, which the plan cuts into one chunk
// per worker, so the pool — and the divisor — is all four; the rate is the
// sweep rate over that and never zero.
func TestPerWorkerRateOnOneCoordinate(t *testing.T) {
	simRep, err := sim.NewSession(4).Run(context.Background(), &sim.Spec{
		Workloads: []string{"comd-lite"},
		SeedCount: 1,
		Insts:     20_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport(simRep, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 4 {
		t.Errorf("1-coordinate x 9-config sweep on 4 workers reports a pool of %d, want 4", rep.Workers)
	}
	if rep.PerWorkerMInstsPS <= 0 || rep.PerWorkerMInstsPS != rep.SweepMInstsPS/float64(simRep.Workers) {
		t.Errorf("per_worker_minsts_per_sec = %v, want sweep rate %v over the plan's %d workers",
			rep.PerWorkerMInstsPS, rep.SweepMInstsPS, simRep.Workers)
	}
}

// TestAggregateConsistency checks the merged MPKI comes from exact pooled
// counters: with a single seed, mean and merged MPKI must coincide.
func TestAggregateConsistency(t *testing.T) {
	sess := sim.NewSession(2)
	simRep, err := sess.Run(context.Background(), &sim.Spec{
		Workloads: []string{"comd-lite"},
		SeedCount: 1,
		Insts:     20_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-big"]}`)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport(simRep, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Aggregates {
		if a.Seeds != 1 {
			t.Errorf("%s/%s: %d seeds, want 1", a.Workload, a.Predictor, a.Seeds)
		}
		if a.MeanMPKI != a.MergedMPKI {
			t.Errorf("%s/%s: single-seed mean %v != merged %v", a.Workload, a.Predictor, a.MeanMPKI, a.MergedMPKI)
		}
	}
}

func TestParseSynthGrid(t *testing.T) {
	grid, err := parseSynthGrid("bias=0.6,0.8,0.95")
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(grid))
	}
	wantNames := []string{"synth-bias0.6", "synth-bias0.8", "synth-bias0.95"}
	for i, p := range grid {
		if p.Name != wantNames[i] {
			t.Errorf("scenario %d named %q, want %q", i, p.Name, wantNames[i])
		}
		// Canonicalized: defaults explicit, mixture filled to sum 1.
		if p.BlockLen == 0 || p.Dispatch == "" {
			t.Errorf("scenario %d not canonical: %+v", i, p)
		}
		if sum := p.BiasedFrac + p.CorrelatedFrac + p.NoisyFrac; sum < 0.999 || sum > 1.001 {
			t.Errorf("scenario %d mixture sums to %v", i, sum)
		}
	}
	if grid[0].BiasedFrac != 0.6 || grid[2].BiasedFrac != 0.95 {
		t.Errorf("bias axis not applied: %v, %v", grid[0].BiasedFrac, grid[2].BiasedFrac)
	}

	// Cross product of two axes, including a trips axis with phases.
	grid, err = parseSynthGrid("hot=0.25,0.75; trips=12:20,40")
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 4 {
		t.Fatalf("cross product gave %d scenarios, want 4", len(grid))
	}
	if grid[0].Name != "synth-hot0.25-trips12.20" || len(grid[0].TripCounts) != 2 {
		t.Errorf("first cross-product scenario: %+v", grid[0])
	}

	for _, tc := range []struct{ arg, want string }{
		{"", "want key=v1"},
		{"bogus=1", "axis"},
		{"bias=", "empty value"},
		{"bias=0.6,,0.8", "empty value"},
		{"depth=two", "invalid syntax"},
		{"taken=0.2", "bias"}, // canonicalization rejects weak bias
		{"seed=1,2,3,4,5,6,7,8,9;hot=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.75", "max"},
	} {
		if _, err := parseSynthGrid(tc.arg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseSynthGrid(%q): err = %v, want one containing %q", tc.arg, err, tc.want)
		}
	}
}

// TestSynthSweepDispatchedAndDeterministic is the acceptance sweep in
// miniature: >= 3 synth parameter sets x 2 seeds, run twice locally from
// fresh processes' worth of state (fresh sessions) and once dispatched to
// in-process simd workers — all byte-identical on deterministic fields.
func TestSynthSweepDispatchedAndDeterministic(t *testing.T) {
	w1 := httptest.NewServer(dispatch.WorkerHandler(sim.NewSession(1), 0))
	defer w1.Close()
	w2 := httptest.NewServer(dispatch.WorkerHandler(sim.NewSession(1), 0))
	defer w2.Close()

	normalize := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		rep.GoVersion = ""
		rep.GOMAXPROCS = 0
		rep.Workers = 0
		rep.Dispatched = false
		rep.WallNS = 0
		rep.SweepMInstsPS = 0
		rep.PerWorkerMInstsPS = 0
		for i := range rep.Shards {
			rep.Shards[i].ElapsedNS = 0
			rep.Shards[i].MInstsPerSec = 0
		}
		for i := range rep.Aggregates {
			rep.Aggregates[i].MeanMInstsPS = 0
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	const grid = "bias=0.6,0.8,0.95"
	dir := t.TempDir()
	paths := map[string]string{
		"cold1":      filepath.Join(dir, "cold1.json"),
		"cold2":      filepath.Join(dir, "cold2.json"),
		"dispatched": filepath.Join(dir, "dispatched.json"),
	}
	if err := run("", grid, 2, 20_000, 2, "", "", "bench", false, false, 0, "", paths["cold1"]); err != nil {
		t.Fatal(err)
	}
	if err := run("", grid, 2, 20_000, 2, "", "", "bench", false, false, 0, "", paths["cold2"]); err != nil {
		t.Fatal(err)
	}
	if err := run("", grid, 2, 20_000, 2, w1.URL+","+w2.URL, "", "bench", false, false, 0, "", paths["dispatched"]); err != nil {
		t.Fatal(err)
	}

	cold1 := normalize(paths["cold1"])
	var rep report
	if err := json.Unmarshal(cold1, &rep); err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2 * 9; len(rep.Shards) != want {
		t.Fatalf("synth sweep has %d shards, want %d (3 scenarios x 2 seeds x 9 predictors)", len(rep.Shards), want)
	}
	if len(rep.Workloads) != 3 || !strings.HasPrefix(rep.Workloads[0], "synth-") {
		t.Fatalf("sweep workloads = %v, want the synth grid only", rep.Workloads)
	}
	if string(cold1) != string(normalize(paths["cold2"])) {
		t.Error("two cold synth sweeps differ on deterministic fields")
	}
	if string(cold1) != string(normalize(paths["dispatched"])) {
		t.Error("dispatched synth sweep differs from local sweep on deterministic fields")
	}
}

func TestParseSynthGridRejectsRepeatedAxis(t *testing.T) {
	if _, err := parseSynthGrid("bias=0.6,0.8;bias=0.9"); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("repeated axis: err = %v, want rejection (later values would silently overwrite earlier ones)", err)
	}
}

// TestAllowPartialDegradedSweep drives the -allow-partial path end to end:
// two workers that deterministically reject every seed-2 shard (with a
// 400, so the rejection is never retried and never blamed). The degraded
// sweep must report exactly the seed-1 survivors, list the seed-2 cells
// as failed_shards, and aggregate over one seed — while the same sweep
// without -allow-partial stays all-or-nothing and fails.
func TestAllowPartialDegradedSweep(t *testing.T) {
	rejectSeed2 := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if bytes.Contains(body, []byte(`"seed":2`)) || bytes.Contains(body, []byte(`"seed": 2`)) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				_, _ = w.Write([]byte(`{"error": "scripted rejection of seed 2"}`))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			inner.ServeHTTP(w, r)
		})
	}
	w1 := httptest.NewServer(rejectSeed2(dispatch.WorkerHandler(sim.NewSession(1), 0)))
	defer w1.Close()
	w2 := httptest.NewServer(rejectSeed2(dispatch.WorkerHandler(sim.NewSession(1), 0)))
	defer w2.Close()
	backends := w1.URL + "," + w2.URL

	dir := t.TempDir()
	out := filepath.Join(dir, "partial.json")
	if err := run("comd-lite", "", 2, 20_000, 2, backends, "", "bench", true, false, 0, "", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if want := 1 * 1 * 9; len(rep.Shards) != want {
		t.Fatalf("degraded sweep has %d shards, want %d seed-1 survivors", len(rep.Shards), want)
	}
	for i := range rep.Shards {
		if rep.Shards[i].Seed != 1 {
			t.Errorf("survivor %d has seed %d, want 1", i, rep.Shards[i].Seed)
		}
	}
	if want := 9; len(rep.FailedShards) != want {
		t.Fatalf("failed_shards has %d entries, want %d (every seed-2 cell)", len(rep.FailedShards), want)
	}
	for _, f := range rep.FailedShards {
		if f.Workload != "comd-lite" || f.Seed != 2 {
			t.Errorf("failed shard = %+v, want a comd-lite seed-2 cell", f)
		}
		if !strings.Contains(f.Error, "scripted rejection") {
			t.Errorf("failed shard error = %q, want the worker's own message", f.Error)
		}
	}
	for _, a := range rep.Aggregates {
		if a.Seeds != 1 {
			t.Errorf("%s/%s aggregates %d seeds, want 1 (survivors only)", a.Workload, a.Predictor, a.Seeds)
		}
	}

	// All-or-nothing remains the default contract.
	if err := run("comd-lite", "", 2, 20_000, 2, backends, "", "bench", false, false, 0, "", filepath.Join(dir, "strict.json")); err == nil {
		t.Fatal("sweep with a permanently failing cell succeeded without -allow-partial")
	}
}

func TestHedgeNeedsBackends(t *testing.T) {
	err := run("comd-lite", "", 1, 1000, 1, "", "", "bench", false, true, 0, "", filepath.Join(t.TempDir(), "x.json"))
	if err == nil || !strings.Contains(err.Error(), "-backends") {
		t.Fatalf("run with -hedge and no -backends = %v, want refusal", err)
	}
}
