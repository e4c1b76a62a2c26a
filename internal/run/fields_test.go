package run

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"testing"

	"repro/internal/conservative"
	"repro/internal/core"
)

// TestEngineConfigsHoldOnlyWhatNewSets: every field of an engine's Config
// is one New sets, in a composite literal or by assignment to a variable
// built from one (cfg.Faults = ...). A field only tests set is a second
// way to run the engine that no caller asks for, so it fails here the day
// it is added.
func TestEngineConfigsHoldOnlyWhatNewSets(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "run.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string][]string{}  // "core.Config" -> fields New sets
	typeOf := map[string]string{} // variable -> the Config type it was built as
	configType := func(e ast.Expr) string {
		if lit, ok := e.(*ast.CompositeLit); ok {
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && sel.Sel.Name == "Config" {
					return pkg.Name + ".Config"
				}
			}
		}
		return ""
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if typ := configType(n); typ != "" {
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						set[typ] = append(set[typ], kv.Key.(*ast.Ident).Name)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					if i < len(n.Rhs) {
						if typ := configType(n.Rhs[i]); typ != "" {
							typeOf[lhs.Name] = typ
						}
					}
				case *ast.SelectorExpr:
					if v, ok := lhs.X.(*ast.Ident); ok && typeOf[v.Name] != "" {
						set[typeOf[v.Name]] = append(set[typeOf[v.Name]], lhs.Sel.Name)
					}
				}
			}
		}
		return true
	})
	for typ, cfg := range map[string]any{"core.Config": core.Config{}, "conservative.Config": conservative.Config{}} {
		var fields []string
		for _, fl := range reflect.VisibleFields(reflect.TypeOf(cfg)) {
			fields = append(fields, fl.Name)
		}
		got := set[typ]
		slices.Sort(fields)
		slices.Sort(got)
		if got = slices.Compact(got); !slices.Equal(fields, got) {
			t.Errorf("%s has fields %v; run.New sets %v", typ, fields, got)
		}
	}
}
