package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// runSweep runs the client with the given flag values, writing to a fresh
// file, and returns the file's bytes and the report they decode to.
func runSweep(t *testing.T, workloadsCSV, synthCSV, backendsCSV, coordinator string, allowPartial bool) ([]byte, *sim.Report) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(context.Background(), workloadsCSV, synthCSV, 2, 20_000, 2, backendsCSV, coordinator, "bench-test", allowPartial, false, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.DecodeReport(data)
	if err != nil {
		t.Fatalf("written file is not a sim/v1 report: %v", err)
	}
	return data, rep
}

// render marshals a report the way run writes it.
func render(t *testing.T, rep *sim.Report) string {
	t.Helper()
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(enc) + "\n"
}

// twoWorkers stands up two in-process simd workers and returns their URLs
// as a -backends value.
func twoWorkers(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		h := dispatch.WorkerHandler(sim.NewSession(1), 0)
		if wrap != nil {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	return strings.Join(urls, ",")
}

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

// TestReportGolden pins what the client writes: the sim/v1 document
// itself, not a reshaping of it. The file round-trips through
// sim.DecodeReport byte for byte, covers the full bpred grid, and equals
// what Session.Run answers for the Spec the flags describe.
func TestReportGolden(t *testing.T) {
	data, rep := runSweep(t, "comd-lite,xalan-lite", "", "", "", false)
	if rep.Schema != sim.SchemaV1 {
		t.Errorf("schema %q, want %q", rep.Schema, sim.SchemaV1)
	}
	// 2 workloads x 2 seeds x 9 standard configs.
	if len(rep.Shards) != 2*2*9 || len(rep.Merged) != 2*9 {
		t.Fatalf("got %d shards / %d merged, want 36 / 18", len(rep.Shards), len(rep.Merged))
	}
	if got := render(t, rep); got != string(data) {
		t.Errorf("written report does not round-trip through DecodeReport:\n got: %s\nwant: %s", got, data)
	}

	direct, err := sim.NewSession(2).Run(context.Background(), &sim.Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 2,
		Insts:     20_000,
		Observers: []sim.ObserverSpec{{Kind: "bpred"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(t, rep.Stripped()), render(t, direct.Stripped()); got != want {
		t.Errorf("client report differs from Session.Run of the same spec:\n got: %s\nwant: %s", got, want)
	}
}

// TestBackendsDispatchMatchesLocal runs the same small sweep on all three
// executors — the local pool, two in-process simd workers (-backends) and
// a coordinator (-coordinator) — and checks the written reports agree on
// every deterministic field. A dispatched run is the one with workers: 0.
func TestBackendsDispatchMatchesLocal(t *testing.T) {
	_, local := runSweep(t, "comd-lite", "", "", "", false)
	_, remote := runSweep(t, "comd-lite", "", twoWorkers(t, nil), "", false)
	want := render(t, local.Stripped())
	if got := render(t, remote.Stripped()); got != want {
		t.Errorf("dispatched sweep differs from local sweep:\nlocal:\n%s\nremote:\n%s", want, got)
	}
	if local.Workers < 1 {
		t.Errorf("local sweep reports a pool of %d", local.Workers)
	}
	if remote.Workers != 0 {
		t.Errorf("dispatched sweep reports workers=%d, want 0 (the concurrency belongs to the backends)", remote.Workers)
	}

	// The coordinator answers with its own run of the same spec.
	coordRep, err := sim.NewSession(2).Run(context.Background(), local.Spec)
	if err != nil {
		t.Fatal(err)
	}
	coord := fakeCoordinator(t, coordRep, 2)
	_, viaCoord := runSweep(t, "comd-lite", "", "", coord.URL, false)
	if got := render(t, viaCoord.Stripped()); got != want {
		t.Errorf("coordinator sweep differs from local sweep:\nlocal:\n%s\ncoordinator:\n%s", want, got)
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
	const grid = "bias=0.6,0.8,0.95"
	_, cold1 := runSweep(t, "", grid, "", "", false)
	_, cold2 := runSweep(t, "", grid, "", "", false)
	_, dispatched := runSweep(t, "", grid, twoWorkers(t, nil), "", false)

	if want := 3 * 2 * 9; len(cold1.Shards) != want {
		t.Fatalf("synth sweep has %d shards, want %d (3 scenarios x 2 seeds x 9 predictors)", len(cold1.Shards), want)
	}
	if w := cold1.Spec.Workloads; len(w) != 3 || !strings.HasPrefix(w[0], "synth-") {
		t.Fatalf("sweep workloads = %v, want the synth grid only", w)
	}
	want := render(t, cold1.Stripped())
	if render(t, cold2.Stripped()) != want {
		t.Error("two cold synth sweeps differ on deterministic fields")
	}
	if render(t, dispatched.Stripped()) != want {
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
// as failed_shards, and merge over one seed — while the same sweep
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
	backends := twoWorkers(t, rejectSeed2)

	_, rep := runSweep(t, "comd-lite", "", backends, "", true)
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
	for _, m := range rep.Merged {
		if m.Seeds != 1 {
			t.Errorf("%s/%s merges %d seeds, want 1 (survivors only)", m.Workload, m.Observer, m.Seeds)
		}
	}

	// All-or-nothing remains the default contract.
	if err := run(context.Background(), "comd-lite", "", 2, 20_000, 2, backends, "", "bench", false, false, filepath.Join(t.TempDir(), "strict.json")); err == nil {
		t.Fatal("sweep with a permanently failing cell succeeded without -allow-partial")
	}
}

func TestHedgeNeedsBackends(t *testing.T) {
	err := run(context.Background(), "comd-lite", "", 1, 1000, 1, "", "", "bench", false, true, filepath.Join(t.TempDir(), "x.json"))
	if err == nil || !strings.Contains(err.Error(), "-backends") {
		t.Fatalf("run with -hedge and no -backends = %v, want refusal", err)
	}
}
