package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

// unsetFields returns the exported fields of the package-level struct
// types declared under internal/ that no non-test code of the module
// writes, each named by its package's path below internal/, its type
// and the field ("fabric.Config.Now"). A write is a composite-literal
// element, an assignment, an inc/dec, or an & taken through a selector,
// of the field or of an element it holds. perfbench, cmd/, examples/
// and the root package count as writers; test files do not, since the
// loader reads none. A field with a json tag is wire data that decoding
// fills, so the scan skips it.
func unsetFields(mod *Module) map[string]bool {
	written := map[*types.Var]bool{}
	for _, pkg := range mod.Sorted {
		info := pkg.Info
		write := func(e ast.Expr) {
			e = ast.Unparen(e)
			for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
				e = ast.Unparen(ix.X) // an element write writes the field that holds it
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().(*types.Var).Origin()] = true
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range n.Elts {
						kv, keyed := el.(*ast.KeyValueExpr)
						if !keyed {
							written[st.Field(i).Origin()] = true
						} else if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v.Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	out := map[string]bool{}
	for _, pkg := range mod.Sorted {
		rel, ok := strings.CutPrefix(pkg.ImportPath, mod.Path+"/internal/")
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if _, wire := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !wire && !written[f] {
					out[rel+"."+name+"."+f.Name()] = true
				}
			}
		}
	}
	return out
}

// TestUnsetFieldsGolden pins unsetFields to testdata/unset_fields.txt:
// one sorted name per line, a tab, and the reason the field stays
// although no production code sets it. A new entry is a setting with no
// caller; delete it with the code that reads it, make it a constant, or
// add it here with its reason. Each + or - line below names one field;
// fix the list by hand.
func TestUnsetFieldsGolden(t *testing.T) {
	mod := loadRepoModule(t)
	for _, d := range goldenDiff(unsetFields(mod), readReasonedGolden(t, "unset_fields.txt")) {
		t.Errorf("the fields no production code sets differ from testdata/unset_fields.txt: %s", d)
	}
}
