package checks

import (
	"go/ast"

	"rebalance/internal/lint"
)

// ctxpollUnder are the subtrees whose loops sit on the cancellation
// path: the executor, the whole sim stack (session, dispatch, sweep),
// the tiered cache both of its stores instantiate (a singleflight
// follower waits in Lead's re-entry loop), and the binaries that drive
// them. The contract since PR 3 is that cancelling a run's context
// aborts it in ~100ms; an unbounded loop that never observes a context
// breaks that bound for every caller above it.
var ctxpollUnder = []string{
	module + "/internal/trace",
	module + "/internal/sim",
	module + "/internal/tiercache",
	module + "/cmd",
}

// Ctxpoll flags infinite for-loops (no loop condition) in
// cancellation-bound code whose bodies show no evidence of observing a
// context: no expression of type context.Context (covers ctx.Done(),
// ctx.Err(), and passing ctx onward) and no context.CancelFunc call.
// Loops that are genuinely bounded by construction (draining a slice,
// one region of compiled ops) carry a //repolint:allow ctxpoll
// annotation stating the bound.
var Ctxpoll = &lint.Analyzer{
	Name: "ctxpoll",
	Doc:  "infinite loops in executor/dispatch/sweep code must poll a context",
	Run:  runCtxpoll,
}

func runCtxpoll(pass *lint.Pass) error {
	if !pathUnder(pass.Pkg.Path(), ctxpollUnder...) {
		return nil
	}
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopObservesContext(pass, loop.Body) {
			pass.Reportf(loop.Pos(), "infinite loop without a context poll in cancellation-bound code: check ctx.Done() (directly or via a ctx-taking call) so cancellation keeps its ~100ms bound, or annotate a provably bounded loop with %s", annotateHint("ctxpoll"))
		}
		return true
	})
	return nil
}

// loopObservesContext reports whether the loop body mentions a
// context.Context-typed expression or invokes a context.CancelFunc.
func loopObservesContext(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := pass.Info.TypeOf(e); t != nil {
			if namedFromContext(t, "Context") || namedFromContext(t, "CancelFunc") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
