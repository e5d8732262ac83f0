package workload_test

import (
	"strings"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// TestBuildAll checks every workload lays out, validates, and has a
// plausible static shape.
func TestBuildAll(t *testing.T) {
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.NumSites < 20 {
			t.Errorf("%s: only %d branch sites", name, p.NumSites)
		}
		if p.TextSize < 2048 {
			t.Errorf("%s: text size %dB implausibly small", name, p.TextSize)
		}
		if len(p.Regions) < 2 {
			t.Errorf("%s: want serial and parallel regions, got %d", name, len(p.Regions))
		}
	}
}

// TestStreamCoverage runs each workload and checks the emitted stream
// exercises the populations the paper measures: both phases, and for the
// pair of workloads together every instruction kind.
func TestStreamCoverage(t *testing.T) {
	var kinds [isa.NumKinds]int64
	for _, name := range workload.Names() {
		obs := analysis.NewBranchMix()
		if err := trace.Run(workload.MustBuild(name), 1, 300_000, trace.NewFeed(obs)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mix := obs.Result()
		if mix.InstCount(analysis.Serial) == 0 || mix.InstCount(analysis.Parallel) == 0 {
			t.Errorf("%s: missing a phase (serial=%d parallel=%d)",
				name, mix.InstCount(analysis.Serial), mix.InstCount(analysis.Parallel))
		}
		if bp := mix.BranchPct(analysis.Total); bp < 2 || bp > 45 {
			t.Errorf("%s: branch share %.1f%% outside plausible range", name, bp)
		}
		for k := 0; k < isa.NumKinds; k++ {
			kinds[k] += mix.Count(analysis.Total, isa.Kind(k))
		}
	}
	for k := 0; k < isa.NumKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("no workload emitted kind %v", isa.Kind(k))
		}
	}
}

// TestRegisterDuplicatePanics pins the registry contract for workload
// models: a duplicate name must fail loudly with the name, never silently
// shadow a built-in profile.
func TestRegisterDuplicatePanics(t *testing.T) {
	name := workload.Names()[0] // a built-in registered at init
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, `"`+name+`"`) {
			t.Fatalf("panic = %v, want a message naming the duplicate workload %q", r, name)
		}
		// The original must still build.
		if _, err := workload.Build(name); err != nil {
			t.Errorf("original workload lost after rejected duplicate: %v", err)
		}
	}()
	workload.Register(name, func() (*program.Program, int) { return nil, 0 })
	t.Fatal("duplicate Register did not panic")
}

func TestRegisterNilBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil builder did not panic")
		}
	}()
	workload.Register("workload-test-nil-builder", nil)
}
