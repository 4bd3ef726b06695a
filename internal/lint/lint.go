package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding. ID is stable across releases (it is what
// ignore comments key on); Message is for humans.
type Diagnostic struct {
	ID       string
	Analyzer string
	Pos      token.Position
	Package  string // import path of the package the finding is in
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.ID, d.Message)
}

// Pass carries everything an analyzer needs to run over one package.
type Pass struct {
	Module *Module
	Pkg    *Package
	Cfg    *Config

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(analyzer, id string, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		ID:       id,
		Analyzer: analyzer,
		Pos:      p.Module.Fset.Position(pos),
		Package:  p.Pkg.ImportPath,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Run is invoked once per package the
// analyzer applies to (the runner consults Applies first).
type Analyzer struct {
	Name string
	Doc  string
	// IDs lists the diagnostic IDs the analyzer can emit, for -list.
	IDs []string
	// Applies reports whether the analyzer runs on the package at all.
	Applies func(cfg *Config, pkg *Package) bool
	Run     func(pass *Pass)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		mapOrderAnalyzer(),
		hotpathAnalyzer(),
		snapshotAnalyzer(),
		locksAnalyzer(),
		errcheckAnalyzer(),
	}
}

// Run executes every analyzer over every package of the module and
// returns the surviving diagnostics, sorted by position. Findings
// silenced by //voltvet:ignore comments are dropped here.
func Run(mod *Module, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	if cfg.ModulePath == "" {
		cfg.ModulePath = mod.Path
	}
	var diags []Diagnostic
	for _, pkg := range mod.Sorted {
		if cfg.IsExcluded(pkg.ImportPath) {
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			// One finding per package, anchored at the first error the
			// type checker reported, keeps the signal readable.
			pos := token.Position{Filename: pkg.Dir}
			if te, ok := pkg.TypeErrors[0].(interface{ Position() token.Position }); ok {
				pos = te.Position()
			} else if len(pkg.Files) > 0 {
				pos = mod.Fset.Position(pkg.Files[0].Package)
			}
			diags = append(diags, Diagnostic{
				ID:       "VV-LOAD001",
				Analyzer: "loader",
				Pos:      pos,
				Package:  pkg.ImportPath,
				Message: fmt.Sprintf("package %s failed to type-check (%d errors, first: %v); analysis may be incomplete",
					pkg.ImportPath, len(pkg.TypeErrors), pkg.TypeErrors[0]),
			})
		}
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(cfg, pkg) {
				continue
			}
			pass := &Pass{Module: mod, Pkg: pkg, Cfg: cfg, diags: &diags}
			a.Run(pass)
		}
	}
	diags = applyIgnores(mod, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.ID < b.ID
	})
	return diags
}

// funcBodies yields every function or method body in the file together
// with its declaration. Function literals inside those bodies are NOT
// yielded separately; analyzers that care descend themselves.
func funcBodies(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}
