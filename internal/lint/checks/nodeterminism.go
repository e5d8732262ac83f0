package checks

import (
	"go/ast"
	"go/types"

	"rebalance/internal/lint"
)

// deterministicExact are packages whose outputs feed goldens, cache
// keys, or wire artifacts and must be bit-reproducible (matched
// exactly: internal/sim's subpackages dispatch and sweep schedule work in
// time and are held only to the clock seam below; shardcache is a bare
// instantiation of tiercache, which is listed — its disk entries are
// artifacts later runs replay).
var deterministicExact = []string{
	module + "/internal/trace",
	module + "/internal/trace/replay",
	module + "/internal/program",
	module + "/internal/isa",
	module + "/internal/rng",
	module + "/internal/stats",
	module + "/internal/analysis",
	module + "/internal/bpred",
	module + "/internal/btb",
	module + "/internal/icache",
	module + "/internal/sim",
	module + "/internal/tiercache",
}

// deterministicUnder are subtree roots that are determinism-critical
// including every subpackage (synthetic workload families).
var deterministicUnder = []string{
	module + "/internal/workload",
}

// clockSeamUnder are the timing policies, which read and wait on time only
// through internal/clock: a wall-clock call there is a wait no test can step.
var clockSeamUnder = []string{
	module + "/internal/sim/dispatch",
	module + "/internal/sim/sweep",
}

// wallClockCalls are the package functions that read or wait on the wall
// clock behind the seam's back.
var wallClockCalls = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Until": true, "time.After": true, "time.AfterFunc": true,
	"time.NewTimer": true, "time.NewTicker": true, "time.Tick": true, "time.Sleep": true,
	"context.WithTimeout": true, "context.WithDeadline": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly seeded generator rather than touching the global source;
// they are deterministic when seeded deterministically and stay legal.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Nodeterminism forbids wall-clock reads (time.Now/Since/Until), global
// math/rand state, and map-iteration-ordered output in
// determinism-critical packages. Warm==cold cache bit-identity and
// dispatched==local golden equality only hold because every stream and
// every encoded artifact is a pure function of (spec, seed); one stray
// clock or unsorted map range breaks that silently. Intentional timing
// fields (Report.WallNS) carry a //repolint:allow nodeterminism
// annotation. In the clock-seam packages it forbids wall-clock calls only.
var Nodeterminism = &lint.Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall clocks, global math/rand, and map-ordered iteration in determinism-critical packages",
	Run:  runNodeterminism,
}

func runNodeterminism(pass *lint.Pass) error {
	path := pass.Pkg.Path()
	seam := pathUnder(path, clockSeamUnder...)
	if !seam && !pathIs(path, deterministicExact...) && !pathUnder(path, deterministicUnder...) {
		return nil
	}
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if seam {
				if fn.Type().(*types.Signature).Recv() == nil && wallClockCalls[fn.Pkg().Path()+"."+fn.Name()] {
					pass.Reportf(n.Pos(), "%s.%s bypasses the clock seam in %s; read and wait on time through Options.Clock (internal/clock)", fn.Pkg().Path(), fn.Name(), path)
				}
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(n.Pos(), "time.%s reads the wall clock in determinism-critical package %s; derive values from the seeded stream, or annotate an intentional timing field with %s", fn.Name(), path, annotateHint("nodeterminism"))
				}
			case "math/rand", "math/rand/v2":
				if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "%s.%s draws from the global math/rand source in determinism-critical package %s; use internal/rng streams seeded from the spec", fn.Pkg().Path(), fn.Name(), path)
				}
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil && !seam {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic in determinism-critical package %s; iterate sorted keys, or annotate a provably order-insensitive fold with %s", path, annotateHint("nodeterminism"))
				}
			}
		}
		return true
	})
	return nil
}

func annotateHint(name string) string {
	return lint.AllowPrefix + name + " <reason>"
}
