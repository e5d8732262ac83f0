package checks_test

import (
	"path/filepath"
	"sync"
	"testing"

	"rebalance/internal/lint"
	"rebalance/internal/lint/checks"
)

// One loader for the whole test binary: it shells out to `go list
// -export` and caches export data, so sharing it keeps the fixture
// tests fast.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("creating loader: %v", loaderErr)
	}
	return loader
}

// runFixture loads testdata/src/<dir> under the given import path —
// the path is what an analyzer's scoping rules see, so fixtures can
// impersonate determinism-critical or exempt packages — and checks the
// analyzer's diagnostics against the fixture's `// want` comments.
func runFixture(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	lint.RunTest(t, sharedLoader(t), a, filepath.Join("testdata", "src", dir), importPath)
}

func TestNodeterminism(t *testing.T) {
	runFixture(t, checks.Nodeterminism, "nodeterminism", "rebalance/internal/trace")
}

// TestNodeterminismExemptPackage: dispatch is outside the determinism
// rules but held to the clock seam — its wall-clock calls are diagnostics.
func TestNodeterminismExemptPackage(t *testing.T) {
	runFixture(t, checks.Nodeterminism, "nodeterminism_excluded", "rebalance/internal/sim/dispatch")
}

func TestNodeterminismReplayPackage(t *testing.T) {
	runFixture(t, checks.Nodeterminism, "nodeterminism_replay", "rebalance/internal/trace/replay")
}

func TestStrictwire(t *testing.T) {
	runFixture(t, checks.Strictwire, "strictwire", "rebalance/internal/sim")
}

func TestStrictwireInsideWirePackage(t *testing.T) {
	runFixture(t, checks.Strictwire, "strictwire_wirepkg", "rebalance/internal/wire")
}

func TestStrictwireReplayPackage(t *testing.T) {
	runFixture(t, checks.Strictwire, "strictwire_replay", "rebalance/internal/trace/replay")
}

func TestMergecontract(t *testing.T) {
	runFixture(t, checks.Mergecontract, "mergecontract", "rebalance/internal/mergefix")
}

func TestCtxpoll(t *testing.T) {
	runFixture(t, checks.Ctxpoll, "ctxpoll", "rebalance/internal/sim/dispatch")
}

// TestCtxpollTiercachePackage pins the tiered cache's enrolment: its
// singleflight re-entry loop is the one infinite loop in the package, and
// a follower that never looked at its context would wait out a leader it
// no longer cares about.
func TestCtxpollTiercachePackage(t *testing.T) {
	runFixture(t, checks.Ctxpoll, "ctxpoll_tiercache", "rebalance/internal/tiercache")
}
