package checks

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
)

// chaosHarness is the chaos soak's fault injector. It is test code, which
// the analyzer wall does not lint, yet its latency and hang faults wait
// only through the injector's clock.Clock, so the soaks run on virtual
// time; this file's tests hold it to the clock seam instead.
const chaosHarness = "../../sim/dispatch/chaos/harness_test.go"

// seamBreaches lists, by position, every wallClockCalls entry the Go
// source names through its time or context import.
func seamBreaches(filename string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	imported := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (path != "time" && path != "context") {
			continue
		}
		local := path
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imported[local] = path
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok {
			if path, ok := imported[x.Name]; ok && wallClockCalls[path+"."+sel.Sel.Name] {
				out = append(out, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), path, sel.Sel.Name))
			}
		}
		return true
	})
	return out, nil
}

// TestChaosHarnessKeepsTheClockSeam: the chaos harness reads and waits on
// time only through its injected clock.
func TestChaosHarnessKeepsTheClockSeam(t *testing.T) {
	breaches, err := seamBreaches(chaosHarness, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range breaches {
		t.Errorf("%s bypasses the clock seam; wait through the injector's clock.Clock", b)
	}
}

// TestSeamBreachesFires: a wall-clock call is found through a renamed
// import too, while a time type conversion is not one.
func TestSeamBreachesFires(t *testing.T) {
	src := `package chaos

import (
	"context"
	tm "time"
)

func wait(ctx context.Context) {
	tm.Sleep(tm.Duration(1) * tm.Millisecond)
	_, cancel := context.WithTimeout(ctx, 0)
	cancel()
}
`
	got, err := seamBreaches("seeded.go", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"seeded.go:9:2: time.Sleep", "seeded.go:10:15: context.WithTimeout"}
	if !slices.Equal(got, want) {
		t.Errorf("seamBreaches = %q, want %q", got, want)
	}
}
