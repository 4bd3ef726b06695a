package lint

// ignoreKey identifies a (file, line) an ignore directive covers.
type ignoreKey struct {
	file string
	line int
}

// applyIgnores drops diagnostics silenced by //voltvet:ignore
// directives and reports malformed directives of every verb. A
// directive covers findings with the named ID on its own line (trailing
// comment) and on the line directly below it (comment above the flagged
// statement).
//
// All verbs share one grammar (directive.go): an ignore without both an
// ID and a reason, a nosnap without a reason, a hotpath other than
// "hotpath root", or an unknown verb outright suppresses/waives/seeds
// nothing and is itself reported as VV-IGN001, so silencing stays
// auditable — a typo fails loud instead of silently widening the
// contract.
func applyIgnores(mod *Module, diags []Diagnostic) []Diagnostic {
	ignored := map[ignoreKey]map[string]bool{}
	var malformed []Diagnostic
	for _, pkg := range mod.Sorted {
		for _, f := range pkg.Files {
			for _, d := range directivesIn(f) {
				pos := mod.Fset.Position(d.pos)
				if d.malformed != "" {
					malformed = append(malformed, Diagnostic{
						ID:       "VV-IGN001",
						Analyzer: "ignore",
						Pos:      pos,
						Package:  pkg.ImportPath,
						Message:  d.malformed,
					})
					continue
				}
				if d.kind != dirIgnore {
					continue
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := ignoreKey{file: pos.Filename, line: line}
					if ignored[k] == nil {
						ignored[k] = map[string]bool{}
					}
					ignored[k][d.id] = true
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if ids := ignored[ignoreKey{file: d.Pos.Filename, line: d.Pos.Line}]; ids != nil && ids[d.ID] {
			continue
		}
		out = append(out, d)
	}
	return append(out, malformed...)
}
