package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Whole-module call graph. PR 4's analyzers were per-function AST
// walks; the snapshot-completeness and hot-path-closure checks are
// properties of call *chains* (a field counts as captured if any helper
// the capture method calls reads it; a function is hot if the step loop
// can reach it), so the module now builds one shared interprocedural
// index: every function with a body, its static module-internal call
// edges, and the struct fields it reads and writes. Interface dispatch
// has no static callee; those sites are resolved separately by
// Implementers (class-hierarchy analysis over the module's named
// types), which is how the closure follows CPU→Bus→SoC→Cache chains
// across interface seams.
//
// Everything is stdlib go/types — the graph piggybacks on the loader's
// type-checked packages and costs one extra AST pass over the module.

// writeKind classifies how a field is written somewhere in a function.
type writeKind uint8

const (
	// writePlain is an ordinary store: assignment (direct or through a
	// selector/index chain), address-taken, copy destination, or a
	// pointer-receiver method call on the field.
	writePlain writeKind = 1 << iota
	// writeIncDec is a ++/-- bump. The snapshot contract treats a field
	// whose only restore-side writes are bumps as a generation counter
	// (monotonic, bumped-never-restored), so the two kinds stay distinct.
	writeIncDec
)

// FnInfo is the call-graph node for one module function.
type FnInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Callees are the static module-internal callees (functions with
	// bodies in this module), deduplicated, in call-site order.
	Callees []*types.Func
	// reads holds every struct field the function mentions, in any
	// position (a write is also a mention). writes holds the fields it
	// stores to, with the kind of store.
	reads  map[*types.Var]bool
	writes map[*types.Var]writeKind
	// ctorOf lists named struct types the function returns (by value or
	// pointer). Writes inside such a constructor initialize a value that
	// cannot predate any snapshot, so they are not mutability evidence.
	ctorOf []*types.Named
}

// CallGraph indexes every function with a body in the module.
type CallGraph struct {
	mod *Module
	fns map[*types.Func]*FnInfo
	// named lists every defined (non-alias) named type in the module,
	// for class-hierarchy interface resolution.
	named []*types.Named
	impls map[*types.Func][]*types.Func
}

// CallGraph returns the module's call graph, building it on first use.
// The graph depends only on the loaded packages, so one build serves
// every analyzer and every configuration.
func (m *Module) CallGraph() *CallGraph {
	m.cgOnce.Do(func() { m.cg = buildCallGraph(m) })
	return m.cg
}

// FuncInfo returns the node for fn, or nil when fn has no body in the
// module (stdlib, interface methods, externally declared).
func (g *CallGraph) FuncInfo(fn *types.Func) *FnInfo { return g.fns[fn] }

// DeclaredFunc resolves a declaration to its types.Func object.
func DeclaredFunc(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}

func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		mod:   mod,
		fns:   map[*types.Func]*FnInfo{},
		impls: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range mod.Sorted {
		if pkg.Types != nil {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						g.named = append(g.named, named)
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, fd := range funcBodies(f) {
				fn := DeclaredFunc(pkg, fd)
				if fn == nil {
					continue
				}
				g.fns[fn] = &FnInfo{
					Pkg:    pkg,
					Decl:   fd,
					reads:  map[*types.Var]bool{},
					writes: map[*types.Var]writeKind{},
					ctorOf: ctorResults(fn),
				}
			}
		}
	}
	for fn, fi := range g.fns {
		g.scanBody(fn, fi)
	}
	return g
}

// ctorResults lists the named struct types fn returns.
func ctorResults(fn *types.Func) []*types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Named
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				out = append(out, named)
			}
		}
	}
	return out
}

// scanBody fills fi's call edges and field-access sets from the AST.
func (g *CallGraph) scanBody(fn *types.Func, fi *FnInfo) {
	info := fi.Pkg.Info
	seen := map[*types.Func]bool{}

	// Reads: every field mention, in any position. The write pass below
	// re-marks store targets; a mention set that includes stores is
	// exactly what "referenced by the capture closure" needs.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if f := fieldOf(info, n); f != nil {
				fi.reads[f] = true
			}
		case *ast.CallExpr:
			if callee := calleeFunc(info, n); callee != nil {
				if _, inModule := g.fns[callee]; inModule && !seen[callee] {
					seen[callee] = true
					fi.Callees = append(fi.Callees, callee)
				}
			}
		}
		return true
	})

	// Writes: classified store positions only.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markChainWrite(info, fi, lhs, writePlain)
			}
		case *ast.IncDecStmt:
			markChainWrite(info, fi, n.X, writeIncDec)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markChainWrite(info, fi, n.X, writePlain)
			}
		case *ast.CallExpr:
			// copy(dst, src) writes dst; clear(x) zeroes x.
			if (isBuiltin(info, n, "copy") && len(n.Args) == 2) || (isBuiltin(info, n, "clear") && len(n.Args) == 1) {
				markChainWrite(info, fi, n.Args[0], writePlain)
				return true
			}
			// A pointer-receiver method call mutates (or may mutate) the
			// value it hangs off, so the receiver chain counts as written:
			// a.rng.SetState(...) restores rng, b.SoC.RestoreSnapshot(s)
			// restores SoC. Interface method calls stay reads — the
			// receiver's dynamic mutability is unknowable here, and every
			// snapshot-bearing implementation has its own checked pair.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if callee := calleeFunc(info, n); callee != nil {
					if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
						if _, ptr := sig.Recv().Type().Underlying().(*types.Pointer); ptr {
							markChainWrite(info, fi, sel.X, writePlain)
						}
					}
				}
			}
		}
		return true
	})
}

// fieldOf resolves a selector to the struct field it names, nil when
// the selector is not a field access.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	// Unqualified field access inside a method (rare in this codebase)
	// and qualified package selectors land in Uses.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// markChainWrite marks every field along a store target's selector
// chain as written: `a.imprint.value[i] = 0` restores state reachable
// through both `imprint` and `value`, so both count.
func markChainWrite(info *types.Info, fi *FnInfo, e ast.Expr, kind writeKind) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if f := fieldOf(info, x); f != nil {
				fi.writes[f] |= kind
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// Closure returns the static call closure of roots within the module:
// roots plus every function reachable through Callees edges. Interface
// dispatch is not followed here — snapshot closures stop at interface
// seams by design (each implementation carries its own pair), and the
// hot-path closure resolves dispatch explicitly via Implementers.
func (g *CallGraph) Closure(roots ...*types.Func) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if out[fn] || g.fns[fn] == nil {
			return
		}
		out[fn] = true
		for _, c := range g.fns[fn].Callees {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return out
}

// Implementers resolves an interface method to the module methods that
// can stand behind it: for every named type in the module implementing
// the interface (by value or pointer), the concrete method with the
// same name, provided it has a body in the module. This is classic
// class-hierarchy analysis — an over-approximation (any implementation
// anywhere counts as a possible callee), which is the conservative
// direction for both closure inference and reachability flagging.
func (g *CallGraph) Implementers(m *types.Func) []*types.Func {
	if got, ok := g.impls[m]; ok {
		return got
	}
	var out []*types.Func
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		g.impls[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		g.impls[m] = nil
		return nil
	}
	seen := map[*types.Func]bool{}
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || seen[fn] || g.fns[fn] == nil {
			continue
		}
		seen[fn] = true
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	g.impls[m] = out
	return out
}
