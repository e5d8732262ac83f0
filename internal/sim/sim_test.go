package sim

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fullObserverSpecs is one of every observer kind, with small fixed
// configurations so tests stay fast.
func fullObserverSpecs() []ObserverSpec {
	return []ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4}]}`)},
		{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4}]}`)},
		{Kind: "branch-mix"},
		{Kind: "bias"},
		{Kind: "footprint"},
		{Kind: "bbl"},
	}
}

func TestSpecValidation(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Workloads: []string{"comd-lite"},
			SeedCount: 1,
			Insts:     1000,
			Observers: []ObserverSpec{{Kind: "branch-mix"}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "no workloads"},
		{"empty workload", func(s *Spec) { s.Workloads = []string{""} }, "empty workload"},
		{"duplicate workload", func(s *Spec) { s.Workloads = []string{"comd-lite", "comd-lite"} }, "duplicate workload"},
		{"unknown workload", func(s *Spec) { s.Workloads = []string{"no-such"} }, "unknown workload"},
		{"both seeds", func(s *Spec) { s.Seeds = []uint64{1} }, "not both"},
		{"duplicate seed", func(s *Spec) { s.SeedCount = 0; s.Seeds = []uint64{3, 3} }, "duplicate seed"},
		{"seed_count bomb", func(s *Spec) { s.SeedCount = math.MaxInt }, "expansion limit"},
		{"zero insts", func(s *Spec) { s.Insts = 0 }, "instruction budget"},
		{"bad engine", func(s *Spec) { s.Engine = "warp" }, "unknown engine"},
		{"reference engine", func(s *Spec) { s.Engine = "reference" }, "unknown engine"},
		{"no observers", func(s *Spec) { s.Observers = nil }, "no observers"},
		{"unknown kind", func(s *Spec) { s.Observers = []ObserverSpec{{Kind: "no-such"}} }, "unknown observer kind"},
		{"unknown predictor", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["no-such"]}`)}}
		}, "unknown predictor"},
		{"duplicate predictor", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","gshare-big"]}`)}}
		}, "duplicate predictor config"},
		{"duplicate grouped predictor", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","gshare-big"],"grouped":true}`)}}
		}, "duplicate predictor config"},
		{"bad option field", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"cfgs":["gshare-small"]}`)}}
		}, "unknown field"},
		{"bad btb geometry", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":100,"ways":3}]}`)}}
		}, "invalid geometry"},
		{"btb too big to allocate", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":1099511627776,"ways":1}]}`)}}
		}, "invalid geometry"},
		{"icache size_kb overflows", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":18014398509481985,"ways":1}]}`)}}
		}, "outside 1.."},
		{"icache negative size_kb overflows", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":-18014398509481983,"ways":1}]}`)}}
		}, "outside 1.."},
		{"icache too big to allocate", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":65537,"ways":1}]}`)}}
		}, "outside 1.."},
		{"icache size not whole lines", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":1,"line_bytes":24,"ways":2}]}`)}}
		}, "not a whole number of 24B lines"},
		{"duplicate config", func(s *Spec) {
			s.Observers = []ObserverSpec{{Kind: "branch-mix"}, {Kind: "branch-mix"}}
		}, "duplicate observer"},
	}
	sess := NewSession(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mut(spec)
			_, err := sess.Run(context.Background(), spec)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
			if _, verr := spec.GridSize(); !errors.Is(verr, ErrInvalidSpec) || !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("GridSize err = %v, Run err = %v; want both ErrInvalidSpec", verr, err)
			}
		})
	}
}

// TestObserverKindsTable pins the kind table: ObserverKinds is sorted and
// unique, and every configuration of a kind's default expansion
// re-describes itself as that kind.
func TestObserverKindsTable(t *testing.T) {
	kinds := ObserverKinds()
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Errorf("ObserverKinds() = %v, want sorted and unique", kinds)
		}
	}
	for _, kind := range kinds {
		cfgs, err := expandObservers([]ObserverSpec{{Kind: kind}})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			if got := c.Spec().Kind; got != kind {
				t.Errorf("kind %q: configuration %s re-describes itself as %q", kind, c.Key(), got)
			}
		}
	}
}

// TestSessionRun checks the full grid shape and that per-shard results are
// deterministic across repeated runs on one cached session.
func TestSessionRun(t *testing.T) {
	sess := NewSession(4)
	spec := &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 2,
		Insts:     30_000,
		Observers: fullObserverSpecs(),
	}
	rep, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 seeds x 8 configs (2 bpred + 1 btb + 1 icache + 4
	// analysis).
	if want := 2 * 2 * 8; len(rep.Shards) != want {
		t.Fatalf("got %d shards, want %d", len(rep.Shards), want)
	}
	if want := 2 * 8; len(rep.Merged) != want {
		t.Fatalf("got %d merged entries, want %d", len(rep.Merged), want)
	}
	if rep.Schema != SchemaV1 {
		t.Fatalf("schema %q, want %q", rep.Schema, SchemaV1)
	}
	for i := range rep.Shards {
		if rep.Shards[i].Insts < spec.Insts {
			t.Errorf("shard %d emitted %d < budget %d", i, rep.Shards[i].Insts, spec.Insts)
		}
	}

	again, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Shards {
		a, err1 := rep.Shards[i].Result.AppendJSON(nil)
		b, err2 := again.Shards[i].Result.AppendJSON(nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(a) != string(b) {
			t.Errorf("shard %s/%s/%d not deterministic across runs",
				rep.Shards[i].Workload, rep.Shards[i].Observer, rep.Shards[i].Seed)
		}
	}
}

// TestSessionCompiledCache checks one compilation is shared by every run.
func TestSessionCompiledCache(t *testing.T) {
	sess := NewSession(2)
	a, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("session recompiled a cached workload")
	}
	if _, err := sess.Compiled("no-such"); err == nil {
		t.Error("unknown workload compiled without error")
	}
}

// TestGroupedParallelEquivalence checks that the grouped observer (one
// multi-predictor pass) produces the same counters as per-config shards,
// whether the spec says grouped or its synonym parallel.
func TestGroupedParallelEquivalence(t *testing.T) {
	sess := NewSession(2)
	run := func(opts string) *Report {
		rep, err := sess.Run(context.Background(), &Spec{
			Workloads: []string{"comd-lite"},
			Seeds:     []uint64{3},
			Insts:     40_000,
			Observers: []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(opts)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	split := run(`{"configs":["gshare-small","tage-small","L-tournament-small"]}`)
	grouped := run(`{"configs":["gshare-small","tage-small","L-tournament-small"],"grouped":true}`)
	parallel := run(`{"configs":["gshare-small","tage-small","L-tournament-small"],"parallel":true}`)

	for gi, rep := range []*Report{grouped, parallel} {
		if len(rep.Shards) != 1 {
			t.Fatalf("grouped run %d: got %d shards, want 1", gi, len(rep.Shards))
		}
		group, ok := rep.Shards[0].Result.(*GroupResult)
		if !ok {
			t.Fatalf("grouped run %d: result is %T", gi, rep.Shards[0].Result)
		}
		if len(group.Results) != len(split.Shards) {
			t.Fatalf("grouped run %d: %d members, want %d", gi, len(group.Results), len(split.Shards))
		}
		for i := range group.Results {
			a, _ := group.Results[i].AppendJSON(nil)
			b, _ := split.Shards[i].Result.AppendJSON(nil)
			if string(a) != string(b) {
				t.Errorf("grouped run %d, member %d: differs from per-config shard:\n%s\n%s", gi, i, a, b)
			}
		}
	}
}

// recursiveProgram builds a model that recurses without bound, so the
// executor fails mid-stream with a call-depth error.
func recursiveProgram() (*program.Program, error) {
	rec := &program.Func{Name: "rec", Ret: &program.Branch{Size: 1, Kind: isa.KindReturn}}
	rec.Body = &program.Seq{Nodes: []program.Node{
		&program.Straight{Block: program.NewBlock([]uint8{4, 4, 4})},
		&program.Call{Site: &program.Branch{Size: 5}, Callee: rec},
	}}
	p := &program.Program{
		Name:  "recursive",
		Funcs: []*program.Func{rec},
		Regions: []*program.Region{{
			Name:   "main",
			Serial: true,
			Weight: 1,
			Body: &program.Seq{Nodes: []program.Node{
				&program.Straight{Block: program.NewBlock([]uint8{4})},
				&program.Call{Site: &program.Branch{Size: 5}, Callee: rec},
			}},
		}},
	}
	return p, program.Layout(p, 0)
}

// TestRunErrorMidStream: a stream that fails mid-pass fails the run with
// the executor's call-depth error, not a result. The session's compile
// cache holds the recursive program under comd-lite's name.
func TestRunErrorMidStream(t *testing.T) {
	sess := NewSession(1)
	if _, err := sess.compile("comd-lite", false, recursiveProgram); err != nil {
		t.Fatal(err)
	}
	_, err := sess.Run(context.Background(), &Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{1},
		Insts:     1_000_000,
		Observers: []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"grouped":true}`)}},
	})
	if err == nil {
		t.Fatal("recursive workload ran without error")
	}
	if !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("want call-depth error, got: %v", err)
	}
}

// TestBatchSizeInvariance: every observer kind's result must be
// bit-identical across delivery batch sizes 1, 7, and 4096, and match the
// per-instruction reference engine — the sim-level pin that each kind's
// Observe and ObserveBatch agree. Batch boundaries are a delivery detail;
// any drift is a correctness bug.
func TestBatchSizeInvariance(t *testing.T) {
	specs := []ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small","L-tournament-small"],"grouped":true}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":256,"ways":2}]}`)},
		{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":8,"line_bytes":64,"ways":2}]}`)},
		{Kind: "branch-mix"},
		{Kind: "bias"},
		{Kind: "footprint"},
		{Kind: "bbl"},
	}
	cfgs, err := expandObservers(specs)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 120_000
	ctx := context.Background()
	for _, name := range []string{"comd-lite", "xalan-lite"} {
		prog, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := trace.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}

		// collect hands fresh observers of every config to one pass of the
		// stream and returns key -> encoded result.
		collect := func(pass func(obs []trace.Observer) error) map[string]string {
			shard := make([]ShardObserver, len(cfgs))
			obs := make([]trace.Observer, len(cfgs))
			for i, cfg := range cfgs {
				shard[i] = cfg.NewObserver(prog)
				obs[i] = shard[i]
			}
			if err := pass(obs); err != nil {
				t.Fatal(err)
			}
			out := map[string]string{}
			for i, cfg := range cfgs {
				res, err := shard[i].Finish()
				if err != nil {
					t.Fatal(err)
				}
				out[cfg.Key()] = encode(t, res)
			}
			return out
		}

		// The reference engine is the batch-free ground truth: one Observe
		// call per instruction.
		want := collect(func(obs []trace.Observer) error {
			e := trace.NewCompiledExecutor(c, 17)
			e.Attach(obs...)
			return e.RunReference(insts)
		})
		rec := replay.NewRecorder()
		e := trace.NewCompiledExecutor(c, 17)
		e.Attach(rec)
		if err := e.Run(insts); err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		for _, bs := range []int{1, 7, trace.BatchSize} {
			got := collect(func(obs []trace.Observer) error {
				return replay.Deliver(ctx, tr, bs, obs...)
			})
			for key, w := range want {
				if got[key] != w {
					t.Errorf("%s: %s: batch size %d drifts from reference:\n got: %s\nwant: %s",
						name, key, bs, got[key], w)
				}
			}
		}
	}
}

// TestReportGolden pins the sim/v1 JSON schema: any drift in the report
// shape or in observer encodings fails CI instead of silently corrupting
// downstream consumers. Regenerate with -update after a deliberate,
// versioned change.
func TestReportGolden(t *testing.T) {
	sess := NewSession(2)
	rep, err := sess.Run(context.Background(), &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		Seeds:     []uint64{1, 2},
		Insts:     40_000,
		Observers: fullObserverSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t, rep)

	golden := filepath.Join("testdata", "report_v1.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestReportGolden -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("sim/v1 report drifted from golden file %s;\nif the change is deliberate, bump/review the schema and regenerate with -update.\ngot:\n%s", golden, got)
	}
}

// TestConcurrentRuns drives one session from several goroutines, the way
// simd does, and checks results stay deterministic.
func TestConcurrentRuns(t *testing.T) {
	sess := NewSession(2)
	spec := func() *Spec {
		return &Spec{
			Workloads: []string{"comd-lite"},
			Seeds:     []uint64{5},
			Insts:     20_000,
			Observers: []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small"]}`)}},
		}
	}
	const n = 4
	encoded := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := sess.Run(context.Background(), spec())
			if err != nil {
				errs[i] = err
				return
			}
			enc, err := rep.Shards[0].Result.AppendJSON(nil)
			if err != nil {
				errs[i] = err
				return
			}
			encoded[i] = string(enc)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if encoded[i] != encoded[0] {
			t.Errorf("concurrent run %d diverged", i)
		}
	}
}
