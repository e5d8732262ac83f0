package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rebalance/internal/sim"
)

// testOptions is the small sweep the tests run: 2 seeds x 20k insts on a
// 2-goroutine pool, submitted as tenant bench-test when a coordinator is
// set.
func testOptions(workloadsCSV, synthCSV, coordinator string, allowPartial bool) options {
	return options{workloads: workloadsCSV, synth: synthCSV, seeds: 2, insts: 20_000, workers: 2,
		coordinator: coordinator, tenant: "bench-test", allowPartial: allowPartial}
}

// runSweep runs the client with o, writing to a fresh file, and returns the
// file's bytes, the report they decode to, and what the client logged.
func runSweep(t *testing.T, o options) ([]byte, *sim.Report, string) {
	t.Helper()
	o.out = filepath.Join(t.TempDir(), "report.json")
	var log strings.Builder
	if err := run(context.Background(), o, &log); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.DecodeReport(data)
	if err != nil {
		t.Fatalf("written file is not a sim/v1 report: %v", err)
	}
	return data, rep, log.String()
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
	data, rep, _ := runSweep(t, testOptions("comd-lite,xalan-lite", "", "", false))
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
// fresh processes' worth of state (fresh sessions) and once through a
// coordinator that runs the spec it was sent — the parameter sets travel
// inline in it — on a session of its own: all byte-identical on
// deterministic fields.
func TestSynthSweepDispatchedAndDeterministic(t *testing.T) {
	const grid = "bias=0.6,0.8,0.95"
	_, cold1, _ := runSweep(t, testOptions("", grid, "", false))
	_, cold2, _ := runSweep(t, testOptions("", grid, "", false))
	coord := fakeCoordinator(t, sim.NewSession(2), 2)
	_, viaCoord, _ := runSweep(t, testOptions("", grid, coord.URL, false))

	if want := 3 * 2 * 9; len(cold1.Shards) != want {
		t.Fatalf("synth sweep has %d shards, want %d (3 scenarios x 2 seeds x 9 predictors)", len(cold1.Shards), want)
	}
	if w := cold1.Spec.Workloads; len(w) != 3 || !strings.HasPrefix(w[0], "synth-") {
		t.Fatalf("sweep workloads = %v, want the synth grid only", w)
	}
	if spec, _ := coord.submitted(); len(spec.Synth) != 3 {
		t.Fatalf("submitted spec carries %d synth parameter sets, want 3", len(spec.Synth))
	}
	want := render(t, cold1.Stripped())
	if render(t, cold2.Stripped()) != want {
		t.Error("two cold synth sweeps differ on deterministic fields")
	}
	if render(t, viaCoord.Stripped()) != want {
		t.Error("synth sweep through the coordinator differs from local sweep on deterministic fields")
	}
}

func TestParseSynthGridRejectsRepeatedAxis(t *testing.T) {
	if _, err := parseSynthGrid("bias=0.6,0.8;bias=0.9"); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("repeated axis: err = %v, want rejection (later values would silently overwrite earlier ones)", err)
	}
}

// rejectSeed2 is a shard runner that rejects every seed-2 shard with a
// scripted error and computes the rest on its own session.
type rejectSeed2 struct{ inner *sim.Session }

func (r rejectSeed2) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	out, err := r.inner.RunShards(ctx, specs)
	for i := range out {
		if specs[i].Seed == 2 {
			out[i] = sim.Outcome{Attempts: 1, Err: errors.New("scripted rejection of seed 2")}
		}
	}
	return out, err
}

// TestAllowPartialDegradedSweep drives -allow-partial through a coordinator
// whose fleet deterministically rejects every seed-2 shard: the flag reaches
// the submitted spec, and the degraded report — the seed-1 survivors, the
// seed-2 cells as failed_shards — is written out with a warning naming how
// many shards were abandoned. Without the flag the sweep lands failed and
// the client fails with it. How a run degrades is pinned where it happens:
// cmd/simd's TestDispatchedRunHonoursAllowPartial and internal/sim.
func TestAllowPartialDegradedSweep(t *testing.T) {
	fleet := sim.NewSession(2)
	fleet.SetRunner(rejectSeed2{sim.NewSession(2)})

	coord := fakeCoordinator(t, fleet, 1)
	_, rep, log := runSweep(t, testOptions("comd-lite", "", coord.URL, true))
	if spec, _ := coord.submitted(); !spec.AllowPartial {
		t.Error("-allow-partial did not reach the submitted spec as allow_partial: true")
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
		if f.Workload != "comd-lite" || f.Seed != 2 || !strings.Contains(f.Error, "scripted rejection") {
			t.Errorf("failed shard = %+v, want a comd-lite seed-2 cell carrying the fleet's message", f)
		}
	}
	if want := "warning: degraded sweep: 9 of 18 shards abandoned"; !strings.Contains(log, want) {
		t.Errorf("client log %q does not carry %q", log, want)
	}

	// All-or-nothing remains the default contract.
	strict := fakeCoordinator(t, fleet, 1)
	o := testOptions("comd-lite", "", strict.URL, false)
	o.out = filepath.Join(t.TempDir(), "strict.json")
	if err := run(context.Background(), o, io.Discard); err == nil || !strings.Contains(err.Error(), "scripted rejection") {
		t.Fatalf("sweep with a permanently failing cell = %v without -allow-partial, want the sweep's failure", err)
	}
}
