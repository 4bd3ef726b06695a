package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// hotpathAnalyzer checks the hot path, which is inferred rather than
// annotated. Roots are tagged //voltvet:hotpath root (the step loop, the
// superblock runner, the snapshot save/restore pair); the closure is
// everything those roots can reach through the call graph, crossing
// interface seams via class-hierarchy analysis. Every closure member is
// held to two contracts:
//
//   - VV-HOT001..004, zero allocation: no fmt calls, string
//     concatenation, capturing closures, or concrete-to-interface
//     conversions on the live path, each of which heap-allocates. The
//     runtime test TestStepSteadyStateZeroAlloc proves the contract for
//     one instruction mix; these checks name the constructs that would
//     break it for any mix.
//   - VV-HOT006: an interface-dispatch call at a hot position. Dispatch
//     does not allocate by itself, but it blocks inlining and hides the
//     callee from static tools — the exact regression the TraceSink
//     devirtualization fixed by hand. Devirtualize, or keep the seam
//     deliberately with a voltvet:ignore and a reason.
//
// Error and panic paths are exempt from the allocation checks: an
// expression consumed directly by a return statement or a panic call
// only executes when the hot loop is already leaving the fast path,
// which is exactly when allocation is acceptable. (The dynamic test
// agrees — it measures the steady state.) Closure traversal is stricter:
// a tail call (`return c.access(...)`) executes on every iteration, so
// reachability follows return operands. Only panic arguments are cold
// for reachability.
func hotpathAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "allocation hygiene and interface dispatch on the closure of //voltvet:hotpath root seeds",
		IDs:  []string{"VV-HOT001", "VV-HOT002", "VV-HOT003", "VV-HOT004", "VV-HOT006"},
		Run:  runHotpath,
	}
}

// HotPath is the module's inferred hot-path structure. Names are in
// types.Func.FullName form (e.g. "(*repro/internal/isa.CPU).Step").
type HotPath struct {
	// Roots are the closure seeds (//voltvet:hotpath root), sorted.
	Roots []string
	// Closure is every function reachable from the roots through static
	// calls and class-hierarchy-resolved interface dispatch.
	Closure map[string]token.Position

	members  map[*types.Func]bool
	findings []Diagnostic
}

// InferHotPath computes (once per module+config) the hot-path closure.
func InferHotPath(mod *Module, cfg *Config) *HotPath {
	mod.hotMu.Lock()
	defer mod.hotMu.Unlock()
	if mod.hotMemo == nil {
		mod.hotMemo = map[*Config]*HotPath{}
	}
	if hp, ok := mod.hotMemo[cfg]; ok {
		return hp
	}
	hp := inferHotPath(mod, cfg)
	mod.hotMemo[cfg] = hp
	return hp
}

// isHotRoot reports whether a declaration carries a root directive
// (//voltvet:hotpath root). Malformed directives seed nothing (they are
// reported as VV-IGN001).
func isHotRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if d, ok := parseDirective(c); ok && d.kind == dirHotpath && d.malformed == "" {
			return true
		}
	}
	return false
}

func inferHotPath(mod *Module, cfg *Config) *HotPath {
	g := mod.CallGraph()
	hp := &HotPath{
		Closure: map[string]token.Position{},
		members: map[*types.Func]bool{},
	}

	var roots []*types.Func
	for _, pkg := range mod.Sorted {
		if cfg.IsExcluded(pkg.ImportPath) {
			continue
		}
		for _, f := range pkg.Files {
			for _, fd := range funcBodies(f) {
				if !isHotRoot(fd) {
					continue
				}
				if fn := DeclaredFunc(pkg, fd); fn != nil {
					roots = append(roots, fn)
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })
	for _, r := range roots {
		hp.Roots = append(hp.Roots, r.FullName())
	}

	// Worklist BFS from the roots.
	work := append([]*types.Func(nil), roots...)
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		fi := g.FuncInfo(fn)
		if fi == nil || hp.members[fn] {
			continue
		}
		if cfg.IsExcluded(fi.Pkg.ImportPath) {
			continue
		}
		hp.members[fn] = true
		hp.Closure[fn.FullName()] = mod.Fset.Position(fi.Decl.Pos())

		// Walk this function's hot call sites.
		for _, hc := range hotCallSites(fi) {
			callee := calleeFunc(fi.Pkg.Info, hc)
			if callee == nil {
				continue // indirect func-value call; nothing to resolve
			}
			sig, _ := callee.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
					impls := g.Implementers(callee)
					hp.findings = append(hp.findings, Diagnostic{
						ID:       "VV-HOT006",
						Analyzer: "hotpath",
						Pos:      mod.Fset.Position(hc.Pos()),
						Package:  fi.Pkg.ImportPath,
						Message: "interface dispatch on the hot path in " + fn.Name() + ": call to " +
							callee.Name() + " resolves dynamically (" + implSummary(impls) +
							"); devirtualize it, or keep the seam with a voltvet:ignore naming why",
					})
					work = append(work, impls...)
					continue
				}
			}
			if g.FuncInfo(callee) != nil {
				work = append(work, callee)
			}
		}
	}
	return hp
}

func implSummary(impls []*types.Func) string {
	switch n := len(impls); n {
	case 0:
		return "no in-module implementation"
	case 1:
		return "resolves to " + impls[0].FullName()
	default:
		return impls[0].FullName() + " and " + strconv.Itoa(n-1) + " other implementation(s)"
	}
}

// hotCallSites returns the call expressions in fi's body that execute
// on the steady-state path: everything except panic arguments. Function
// literal bodies are included — a closure created on the hot path is
// conservatively assumed to run there.
func hotCallSites(fi *FnInfo) []*ast.CallExpr {
	var out []*ast.CallExpr
	var walk func(n ast.Node, cold bool)
	walk = func(n ast.Node, cold bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.CallExpr:
			if isBuiltinPanic(fi.Pkg.Info, n) {
				for _, a := range n.Args {
					walk(a, true)
				}
				return
			}
			if !cold {
				out = append(out, n)
			}
			walk(n.Fun, cold)
			for _, a := range n.Args {
				walk(a, cold)
			}
			return
		}
		children(n, func(c ast.Node) { walk(c, cold) })
	}
	walk(fi.Decl.Body, false)
	return out
}

// runHotpath reports the closure's VV-HOT006 findings that land in the
// current package and runs the allocation checks on every function of
// the package that is in the closure.
func runHotpath(pass *Pass) {
	hp := InferHotPath(pass.Module, pass.Cfg)
	for _, d := range hp.findings {
		if d.Package == pass.Pkg.ImportPath {
			*pass.diags = append(*pass.diags, d)
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, fd := range funcBodies(f) {
			if !hp.members[DeclaredFunc(pass.Pkg, fd)] {
				continue
			}
			h := &hotpathWalker{pass: pass, info: pass.Pkg.Info, fn: fd}
			h.node(fd.Body, false)
		}
	}
}

type hotpathWalker struct {
	pass *Pass
	info *types.Info
	fn   *ast.FuncDecl
}

// node walks n; cold marks expressions that only execute while leaving
// the fast path (operands of return statements and panic calls).
func (h *hotpathWalker) node(n ast.Node, cold bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			h.node(r, true)
		}
		return
	case *ast.CallExpr:
		if isBuiltinPanic(h.info, n) {
			for _, a := range n.Args {
				h.node(a, true)
			}
			return
		}
		if !cold {
			h.checkCall(n)
		}
		h.node(n.Fun, cold)
		for _, a := range n.Args {
			h.node(a, cold)
		}
		return
	case *ast.BinaryExpr:
		if !cold && n.Op == token.ADD {
			if tv, ok := h.info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
				h.pass.Reportf("hotpath", "VV-HOT002", n.OpPos,
					"string concatenation allocates on the hot path in %s; build into a reusable buffer instead", h.fn.Name.Name)
			}
		}
	case *ast.FuncLit:
		if !cold {
			if cap := h.firstCapture(n); cap != "" {
				h.pass.Reportf("hotpath", "VV-HOT003", n.Pos(),
					"closure capturing %q allocates on the hot path in %s; hoist the closure or pass state explicitly", cap, h.fn.Name.Name)
			}
		}
		// Walk the body with a fresh cold state: code inside the literal
		// runs whenever the closure runs, which we conservatively treat
		// as hot iff the literal itself was created hot.
		h.node(n.Body, cold)
		return
	}
	// Generic descent for everything not handled above.
	children(n, func(c ast.Node) { h.node(c, cold) })
}

// checkCall flags fmt calls (VV-HOT001) and concrete-to-interface
// argument conversions (VV-HOT004) on the live path.
func (h *hotpathWalker) checkCall(call *ast.CallExpr) {
	// Explicit conversion T(x) with T an interface type.
	if tv, ok := h.info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := h.info.Types[call.Args[0]]; ok && atv.Type != nil &&
				!types.IsInterface(atv.Type) && !isNilType(atv.Type) {
				h.pass.Reportf("hotpath", "VV-HOT004", call.Pos(),
					"conversion of %s to interface %s allocates on the hot path in %s",
					atv.Type, tv.Type, h.fn.Name.Name)
			}
		}
		return
	}
	callee := calleeFunc(h.info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		h.pass.Reportf("hotpath", "VV-HOT001", call.Pos(),
			"fmt.%s allocates on the hot path in %s; it is only exempt inside panic(...) or a return statement", callee.Name(), h.fn.Name.Name)
		return // don't double-report its variadic interface args
	}
	sig := callSignature(h.info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv, ok := h.info.Types[arg]
		if !ok || atv.Type == nil || types.IsInterface(atv.Type) || isNilType(atv.Type) {
			continue
		}
		if atv.Value != nil {
			continue // constants box at compile time into read-only data
		}
		h.pass.Reportf("hotpath", "VV-HOT004", arg.Pos(),
			"passing concrete %s as interface %s allocates on the hot path in %s",
			atv.Type, pt, h.fn.Name.Name)
	}
}

// firstCapture returns the name of one variable the literal captures
// from the enclosing function, or "" when it captures nothing.
func (h *hotpathWalker) firstCapture(lit *ast.FuncLit) string {
	capture := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capture != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := h.info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// outside the literal. Package-level vars don't count.
		if obj.Pos() >= h.fn.Pos() && obj.Pos() < h.fn.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			capture = obj.Name()
		}
		return true
	})
	return capture
}

func isBuiltinPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func isNilType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// calleeFunc resolves the called function when it is a direct selector
// or identifier reference; nil for indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callSignature returns the signature of the call's callee, nil for
// builtins and type conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// children invokes fn for each direct child node of n. ast.Inspect
// cannot express "visit children only", so this visits n, lets fn
// recurse for every child, and cuts Inspect's own descent short.
func children(n ast.Node, fn func(ast.Node)) {
	if n == nil {
		return
	}
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if first {
			first = false
			return true // n itself: descend one level
		}
		fn(c)
		return false // fn recurses; stop Inspect here
	})
}
