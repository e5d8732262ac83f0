package checks

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"rebalance/internal/lint"
)

// wirePkg is the one package allowed to touch encoding/json's lenient
// decoders directly; everything else goes through its strict helpers.
const wirePkg = module + "/internal/wire"

// Strictwire enforces the wire-boundary discipline:
//
//   - json.Unmarshal / json.NewDecoder outside internal/wire are
//     errors — every decode goes through wire.StrictUnmarshal /
//     wire.StrictDecode (or a Decode* wrapper built on them), so unknown
//     fields and trailing garbage fail loudly at every process boundary.
//   - A struct with any json-tagged field is a wire struct: every
//     exported field and every embedded one must carry an explicit json
//     tag, so a field addition cannot silently ship under a default name
//     (or flattened in by an embed) that the other side does not
//     strict-decode.
//   - Composite literals of wire structs must be keyed: an unkeyed
//     literal binds by position, so inserting a field reorders every
//     value after it without a compile error.
var Strictwire = &lint.Analyzer{
	Name: "strictwire",
	Doc:  "route all JSON decodes through internal/wire and keep wire structs fully tagged and keyed",
	Run:  runStrictwire,
}

func runStrictwire(pass *lint.Pass) error {
	path := pass.Pkg.Path()
	if !inModule(path) {
		return nil
	}
	own := path == wirePkg
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if own {
				return true
			}
			if isPkgFunc(pass.Info, n, "encoding/json", "Unmarshal") {
				pass.Reportf(n.Pos(), "raw json.Unmarshal outside internal/wire: use wire.StrictUnmarshal (or a Decode* wrapper) so unknown fields and trailing data are rejected")
			}
			if isPkgFunc(pass.Info, n, "encoding/json", "NewDecoder") {
				pass.Reportf(n.Pos(), "raw json.NewDecoder outside internal/wire: use wire.StrictDecode (or a Decode* wrapper) so unknown fields and trailing data are rejected")
			}
		case *ast.StructType:
			checkWireTags(pass, n)
		case *ast.CompositeLit:
			checkKeyedWireLit(pass, n)
		}
		return true
	})
	return nil
}

// checkWireTags flags exported and embedded fields missing a json tag in
// structs that have at least one json-tagged field. An untagged embed
// flattens its type's fields into the parent document, whatever its own
// name's case; unexported named fields never marshal.
func checkWireTags(pass *lint.Pass, st *ast.StructType) {
	if !isWireStructAST(st) {
		return
	}
	for _, f := range st.Fields.List {
		if hasJSONTag(f) {
			continue
		}
		if len(f.Names) == 0 {
			pass.Reportf(f.Type.Pos(), "embedded field of a wire struct has no json tag; an untagged embed flattens its fields into the document under names nobody declared here, so name it with a tag (or json:\"-\")")
		}
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			pass.Reportf(name.Pos(), "field %s of a wire struct has no json tag; every serialized field needs an explicit name (or json:\"-\") so additions cannot ship under accidental keys", name.Name)
		}
	}
}

func hasJSONTag(f *ast.Field) bool {
	if f.Tag == nil {
		return false
	}
	tag := strings.Trim(f.Tag.Value, "`")
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

func isWireStructAST(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if hasJSONTag(f) {
			return true
		}
	}
	return false
}

// isWireStructType mirrors isWireStructAST over type information, so
// literals of wire structs defined in other packages are caught too.
func isWireStructType(t types.Type) (*types.Struct, bool) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return st, true
		}
	}
	return nil, false
}

// checkKeyedWireLit flags unkeyed composite literals of wire structs.
func checkKeyedWireLit(pass *lint.Pass, lit *ast.CompositeLit) {
	t := pass.Info.TypeOf(lit)
	if t == nil || len(lit.Elts) == 0 {
		return
	}
	if _, ok := lit.Elts[0].(*ast.KeyValueExpr); ok {
		return
	}
	st, ok := isWireStructType(t)
	if !ok || len(lit.Elts) != st.NumFields() {
		return
	}
	pass.Reportf(lit.Pos(), "unkeyed composite literal of wire struct %s: positional fields silently reorder when the struct grows; key every field", t)
}
