package main

import (
	"context"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
)

// None of these tests asserts a timing: they pin the harness's arithmetic,
// its correctness checks and the agreement between the command's output and
// BENCHMARK.json.

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{{30, 66}, {300, 96}, {2000, 99}, {20, 50}, {19, 50}, {2, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The reported tail must leave at least ten samples beyond it.
	for _, n := range []int{20, 23, 30, 225, 300, 1500, 2000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v := percentile(xs, tailPercentile(n))
		if beyond := n - int(v); n >= 21 && beyond < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it, want >= 10", n, tailPercentile(n), beyond)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7})
	if q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v %v, want the sample", q1, q2, q3)
	}
}

func TestCalmestWindows(t *testing.T) {
	// Three windows of three and a remainder of one that joins none. The
	// burst in the middle window touches none of the three metrics.
	walls := []float64{10, 12, 30, 50, 60, 70, 11, 13, 12, 1}
	insts := []float64{1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6}
	got := calmest(walls, insts, 3)
	// Medians 12, 60, 12; maxima 30, 70, 13; walls 52, 180, 36 ms for 3e6 inst.
	if want := (calm{p50: 12, tail: 13, throughput: 3e6 / 1e3 / 36}); got != want {
		t.Errorf("calmest = %+v, want %+v", got, want)
	}
	// Fewer sweeps than a window make one window of them all.
	if got := calmest(walls[:2], insts[:2], 20); got.p50 != 11 || got.tail != 12 {
		t.Errorf("calmest of a short run = %+v, want p50 11 and tail 12", got)
	}
	// Scaled sweep counts are whole windows and never fewer than minSweeps.
	for _, d := range workloads {
		for _, seconds := range []int{1, 15, 20, 60} {
			n := defaultSizes().sweepCount(&d, seconds)
			if n < minSweeps || n%d.window != 0 {
				t.Errorf("%s at %d s: %d sweeps, want whole windows of %d and at least %d", d.name, seconds, n, d.window, minSweeps)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep", StartNS: 0, EndNS: 100},
		// Two shards running in parallel: their union covers [10, 70).
		{ID: 2, Name: "shard", StartNS: 10, EndNS: 50, Parent: 1},
		{ID: 3, Name: "shard", StartNS: 30, EndNS: 70, Parent: 1},
		// A shard whose derived start precedes the sweep: clipped to [0, 5).
		{ID: 4, Name: "shard", StartNS: -20, EndNS: 5, Parent: 1},
		{ID: 5, Name: "report.encode", StartNS: 90, EndNS: 100, Parent: 1},
		// Nested: a grandchild only reduces its own parent.
		{ID: 6, Name: "observe", StartNS: 15, EndNS: 25, Parent: 2},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60 - 5 - 10, 2: 30, 3: 40, 4: 25, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["shard"] != 30+40+25 {
		t.Errorf("self time of shard spans = %d, want %d", byName["shard"], 30+40+25)
	}
}

func TestDigestIgnoresOnlyTimingFields(t *testing.T) {
	d, err := findWorkload("mixed9-cached-rerun")
	if err != nil {
		t.Fatal(err)
	}
	sz := smokeSizes()
	rep, err := sim.NewSession(2).Run(context.Background(), d.spec(1, sz))
	if err != nil {
		t.Fatal(err)
	}
	want, err := reportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	mutated := *rep
	mutated.WallNS += 12345
	mutated.Workers = 0
	mutated.Shards = append([]sim.Shard(nil), rep.Shards...)
	for i := range mutated.Shards {
		mutated.Shards[i].ElapsedNS += int64(i + 1)
		mutated.Shards[i].Cached = true
	}
	if got, _ := reportDigest(&mutated); got != want {
		t.Errorf("digest moved with WallNS/Workers/ElapsedNS/Cached: %s vs %s", got, want)
	}
	mutated.Shards[3].Insts++
	if got, _ := reportDigest(&mutated); got == want {
		t.Error("digest did not move with a simulated counter")
	}
	if rep.Shards[3].ElapsedNS == mutated.Shards[3].ElapsedNS {
		t.Error("normalising or mutating the copy wrote through to the original report")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	row := func(better string, bound float64, vals ...float64) metricRow {
		r := metricRow{Name: "m", Better: better, Bound: bound, Values: vals}
		r.summarize()
		return r
	}
	tight := []float64{100, 100.5, 101, 100.2, 99.8, 100.1, 100.3, 99.9, 100.4, 100}
	noisy := []float64{80, 120, 100, 90, 110, 85, 115, 95, 105, 100}
	cases := []struct {
		name string
		a, b metricRow
		want string
	}{
		{"same", row("lower", 0.05, tight...), row("lower", 0.05, tight...), verdictOK},
		{"slower beyond the bound", row("lower", 0.05, tight...), row("lower", 0.05, 110, 111, 109), verdictRegression},
		{"slower within the bound", row("lower", 0.05, tight...), row("lower", 0.05, 103, 104, 102), verdictOK},
		{"less throughput", row("higher", 0.05, tight...), row("higher", 0.05, 90, 91, 89), verdictRegression},
		{"more throughput", row("higher", 0.05, tight...), row("higher", 0.05, 120, 121), verdictOK},
		{"baseline too noisy to tell", row("lower", 0.05, noisy...), row("lower", 0.05, 104, 105), verdictUnresolved},
		{"noisy but every run better", row("lower", 0.05, noisy...), row("lower", 0.05, 60, 70), verdictOK},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json's exact key set.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := wire.StrictUnmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

func smokeSizes() sizes {
	return sizes{
		insts: 20_000, smallInsts: 20_000, sweeps: 2, setupReps: 1,
		tracedSweeps: 1, unitInsts: 20_000, unitReps: 1, ratioSweeps: 1, rttCalls: 20, smallOps: 10,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeMatchesBenchmarkJSON runs all five workloads small, timed and
// traced, and checks that what the command emits and what BENCHMARK.json
// declares are the same names with the same units, in both directions.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if golden.Seed != 1 || len(golden.Digests) != len(workloads) {
		t.Errorf("golden.json: seed %d with %d digests, want seed 1 with %d", golden.Seed, len(golden.Digests), len(workloads))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	mixedDigest := ""
	for i, d := range workloads {
		if b.Workloads[i].Name != d.name || b.Workloads[i].Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, b.Workloads[i].Name, d.name)
		}
		if golden.Digests[d.name] == "" {
			t.Errorf("golden.json has no digest for %s", d.name)
		}
		cfg := &runConfig{workload: d.name, seed: 7, seconds: b.RunSeconds, outDir: t.TempDir(), sz: smokeSizes(), start: time.Now(), log: io.Discard}
		timed, err := runTimed(ctx, cfg)
		if err != nil {
			t.Fatalf("%s timed: %v", d.name, err)
		}
		if !timed.Correct || timed.Failed != 0 || timed.Attempted != 2*72 {
			t.Errorf("%s timed: correct=%v failed=%d attempted=%d", d.name, timed.Correct, timed.Failed, timed.Attempted)
		}
		if len(timed.EndToEnd) != len(b.EndToEnd) {
			t.Fatalf("%s emits %d end-to-end metrics, BENCHMARK.json lists %d", d.name, len(timed.EndToEnd), len(b.EndToEnd))
		}
		for j, row := range timed.EndToEnd {
			decl := b.EndToEnd[j]
			if row.Name != decl.Name || row.Unit != decl.Unit || row.Better != decl.Better {
				t.Errorf("%s end-to-end %d: emitted %s [%s, %s], declared %s [%s, %s]", d.name, j, row.Name, row.Unit, row.Better, decl.Name, decl.Unit, decl.Better)
			}
			if row.Bound <= 0 || row.Bound > decl.Bound {
				t.Errorf("%s %s: workload bound %v must be positive and within BENCHMARK.json's %v", d.name, row.Name, row.Bound, decl.Bound)
			}
			if row.Median <= 0 {
				t.Errorf("%s %s = %v, want a positive value", d.name, row.Name, row.Median)
			}
		}
		if d.mixed && !d.small {
			if mixedDigest == "" {
				mixedDigest = timed.Digests[0]
			} else if timed.Digests[0] != mixedDigest {
				t.Errorf("%s digest %s differs from the other mixed9 workloads' %s", d.name, timed.Digests[0], mixedDigest)
			}
		}

		cfg.traced = true
		traced, err := runTraced(ctx, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", d.name, err)
		}
		if traced.Digests[0] != timed.Digests[0] {
			t.Errorf("%s: traced digest %s, timed digest %s", d.name, traced.Digests[0], timed.Digests[0])
		}
		if len(traced.PerLayer) != len(b.PerLayer) {
			t.Fatalf("%s emits %d per-layer metrics, BENCHMARK.json lists %d", d.name, len(traced.PerLayer), len(b.PerLayer))
		}
		for j, row := range traced.PerLayer {
			decl := b.PerLayer[j]
			if row.Name != decl.Name || row.Unit != decl.Unit || row.Better != decl.Better {
				t.Errorf("%s per-layer %d: emitted %s [%s, %s], declared %s [%s, %s]", d.name, j, row.Name, row.Unit, row.Better, decl.Name, decl.Unit, decl.Better)
			}
		}
		if _, err := os.Stat(cfg.outDir + "/trace-" + d.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", d.name, err)
		}
	}
	var all []string
	for _, w := range b.Workloads {
		all = append(all, w.Name)
	}
	for _, m := range b.EndToEnd {
		all = append(all, m.Name)
	}
	for _, m := range b.PerLayer {
		all = append(all, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range all {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice in BENCHMARK.json", n)
		}
		seen[n] = true
	}
}

func TestDocumentMergeAndSummary(t *testing.T) {
	mk := func(v float64, digest string) *document {
		row := metricRow{Name: "sweep_wall_ms_p50", Unit: "ms", Better: "lower", Bound: 0.05, Values: []float64{v}}
		row.summarize()
		return &document{Schema: schemaV2, Workloads: []workloadDoc{{
			Name: "fig5-generate", Sweeps: 30, Digests: []string{digest}, Attempted: 10, Correct: true, EndToEnd: []metricRow{row}}}}
	}
	doc := mk(100, "a")
	for _, v := range []float64{102, 98, 101} {
		if err := doc.merge(mk(v, "b")); err != nil {
			t.Fatal(err)
		}
	}
	w := doc.Workloads[0]
	if w.Attempted != 40 || len(w.Digests) != 4 || w.EndToEnd[0].Samples != 4 || w.EndToEnd[0].Median != 100.5 {
		t.Errorf("merged workload = %+v", w)
	}
	other := mk(1, "c")
	other.Workloads[0].Sweeps = 20
	if err := doc.merge(other); err == nil {
		t.Error("merging runs of different sweep counts succeeded")
	}
}
