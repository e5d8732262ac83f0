package workload_test

import (
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/isa"
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

// TestNamesBuildThemselves pins the workload table: every listed name is
// listed once and builds a program of that name, and an unlisted one is
// refused with the listing.
func TestNamesBuildThemselves(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range workload.Names() {
		if seen[name] {
			t.Errorf("%q listed twice", name)
		}
		seen[name] = true
		if !workload.Has(name) {
			t.Errorf("Has(%q) = false for a listed name", name)
		}
		if p := workload.MustBuild(name); p.Name != name {
			t.Errorf("Build(%q) built a program named %q", name, p.Name)
		}
	}
	_, err := workload.Build("no-such")
	if want := `workload: unknown workload "no-such" (have [comd-lite xalan-lite])`; err == nil || err.Error() != want {
		t.Errorf("Build(no-such) = %v, want %s", err, want)
	}
}
