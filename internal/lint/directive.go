package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive parsing, shared by every voltvet comment marker. The
// grammar is one verb plus verb-specific operands:
//
//	voltvet:ignore VV-XXXNNN reason...   suppress one finding in place
//	voltvet:nosnap reason...             waive one struct field from the
//	                                     snapshot-completeness contract
//	voltvet:hotpath root                 seed of the inferred hot path;
//	                                     everything it reaches is held to
//	                                     the hot-path checks
//
// (each spelled as a //-comment with no space after the slashes).
// Every verb funnels through parseDirective so the malformed-directive
// diagnostics stay consistent: a directive that parses but is missing
// its operands — an ignore without an ID or reason, a nosnap without a
// reason, a hotpath without exactly the root operand, or an unknown
// verb entirely — is reported as VV-IGN001 rather than silently doing
// nothing. Silencing and waiving must stay auditable, and a bare
// hotpath marker would seed nothing, so it fails loud rather than look
// like it puts a function on the hot path.
const directivePrefix = "//voltvet:"

type directiveKind int

const (
	dirIgnore directiveKind = iota
	dirNosnap
	dirHotpath
)

// directive is one parsed voltvet comment.
type directive struct {
	kind directiveKind
	pos  token.Pos
	// id is the suppressed diagnostic ID (ignore only).
	id string
	// reason is the mandatory justification (ignore and nosnap).
	reason string
	// malformed carries the parse complaint; non-empty means the
	// directive suppresses/waives/marks nothing and must be reported.
	malformed string
}

// parseDirective parses one comment. ok is false when the comment is
// not a voltvet directive at all (including prose that merely mentions
// one, which never starts with the bare prefix).
func parseDirective(c *ast.Comment) (d directive, ok bool) {
	rest, found := strings.CutPrefix(c.Text, directivePrefix)
	if !found {
		return directive{}, false
	}
	d.pos = c.Pos()
	verb, args, _ := strings.Cut(rest, " ")
	fields := strings.Fields(args)
	switch verb {
	case "ignore":
		d.kind = dirIgnore
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "VV-") {
			d.malformed = "malformed voltvet:ignore directive: want \"voltvet:ignore VV-XXXNNN reason...\" (as a //-comment)"
			return d, true
		}
		d.id = fields[0]
		d.reason = strings.Join(fields[1:], " ")
	case "nosnap":
		d.kind = dirNosnap
		if len(fields) == 0 {
			d.malformed = "malformed voltvet:nosnap directive: want \"voltvet:nosnap reason...\" (as a //-comment); the reason is mandatory"
			return d, true
		}
		d.reason = strings.Join(fields, " ")
	case "hotpath":
		d.kind = dirHotpath
		if len(fields) != 1 || fields[0] != "root" {
			d.malformed = "malformed voltvet:hotpath directive: want \"voltvet:hotpath root\" (as a //-comment); the rest of the hot path is inferred from the roots"
			return d, true
		}
	default:
		d.malformed = "unknown voltvet directive \"voltvet:" + verb + "\"; known verbs: ignore, nosnap, hotpath"
	}
	return d, true
}

// directivesIn parses every voltvet directive in the file.
func directivesIn(f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// fieldWaiver returns the nosnap waiver attached to a struct field:
// a voltvet:nosnap directive in the field's doc comment group or its
// trailing line comment. Malformed waivers attach nothing (they are
// reported as VV-IGN001 by the ignore pass), so a typoed waiver fails
// loud instead of silently exempting the field.
func fieldWaiver(field *ast.Field) (directive, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok && d.kind == dirNosnap && d.malformed == "" {
				return d, true
			}
		}
	}
	return directive{}, false
}
