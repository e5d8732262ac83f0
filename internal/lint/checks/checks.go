// Package checks holds the repository's custom analyzers: the
// invariants every correctness claim rests on (deterministic streams,
// strict wire decoding, total Merge contracts, cancellation-bound loops),
// enforced at analysis time instead of discovered by golden diff. See DESIGN.md "Static-analysis wall".
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"rebalance/internal/lint"
)

// module is the import-path root every scoping rule hangs off.
const module = "rebalance"

// All returns the full analyzer suite in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		Nodeterminism,
		Strictwire,
		Mergecontract,
		Ctxpoll,
	}
}

// inModule reports whether path is the module or one of its packages.
func inModule(path string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// pathIs reports whether pkg is exactly one of the listed package paths.
func pathIs(pkg string, paths ...string) bool {
	for _, p := range paths {
		if pkg == p {
			return true
		}
	}
	return false
}

// pathUnder reports whether pkg is one of the listed paths or a
// subpackage of one (segment-aware prefix match).
func pathUnder(pkg string, paths ...string) bool {
	for _, p := range paths {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil for calls through function-valued expressions and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether the call invokes pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// inspectStack walks every file, calling fn with each node and the
// stack of its ancestors (outermost first, not including the node).
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			recurse := fn(n, stack)
			if recurse {
				stack = append(stack, n)
			}
			return recurse
		})
	}
}

// namedFromContext reports whether t is the named type context.name
// (Context, CancelFunc).
func namedFromContext(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == name
}
