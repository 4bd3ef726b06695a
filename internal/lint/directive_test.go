package lint

import (
	"go/ast"
	"testing"
)

// TestParseDirectiveHotpath pins the hotpath grammar: only the root
// form seeds the inferred closure. A bare marker is malformed (reported
// as VV-IGN001), so a stale or habitual annotation fails loud instead of
// silently meaning nothing. A fixture cannot show the bare form, since a
// same-line want comment would become its operands.
func TestParseDirectiveHotpath(t *testing.T) {
	for _, tc := range []struct {
		text      string
		malformed bool
	}{
		{directivePrefix + "hotpath root", false},
		{directivePrefix + "hotpath", true},
		{directivePrefix + "hotpath root now", true},
		{directivePrefix + "hotpath roots", true},
	} {
		d, ok := parseDirective(&ast.Comment{Text: tc.text})
		if !ok || d.kind != dirHotpath {
			t.Errorf("%q: parsed as ok=%v kind=%v, want a hotpath directive", tc.text, ok, d.kind)
			continue
		}
		if got := d.malformed != ""; got != tc.malformed {
			t.Errorf("%q: malformed=%v (%q), want %v", tc.text, got, d.malformed, tc.malformed)
		}
	}
}
