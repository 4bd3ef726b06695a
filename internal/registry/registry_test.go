package registry

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// catalogNames pins the default catalog in print order. The first 25
// entries are the exact catalog of the pre-registry cmd/experiments
// main — the registry refactor must not rename, reorder or drop any of
// them; later additions append here when they land.
var catalogNames = []string{
	"table1", "figure3", "table2", "table3", "figure4", "figure5",
	"figure6", "figure7", "figure8", "table4", "section7.2", "section6.2",
	"figure9", "figure10", "countermeasures", "ablationA-probe-sweep",
	"ablationB-retention-sweep", "ablationC-dram-coldboot",
	"ablationD-imprint", "ablationE-history-theft", "caselock",
	"ablationF-warm-reboot", "ablationG-context-switch",
	"ablationH-puf-clone", "mcu-extension",
	"glitchboot-check-skip", "glitchboot-verify-bypass", "glitch-search",
	"trace-capture", "sca-spa", "sca-cpa",
}

// slowNames pins the slow flags of the pre-registry catalog.
var slowNames = map[string]bool{
	"table4": true, "countermeasures": true, "ablationA-probe-sweep": true,
	"caselock": true, "ablationH-puf-clone": true,
}

func TestDefaultCatalogMatchesLegacyCLI(t *testing.T) {
	reg := Default()
	exps := reg.Experiments()
	if len(exps) != len(catalogNames) {
		t.Fatalf("catalog has %d experiments, want %d", len(exps), len(catalogNames))
	}
	for i, e := range exps {
		if e.Name != catalogNames[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, e.Name, catalogNames[i])
		}
		if e.Slow != slowNames[e.Name] {
			t.Errorf("%s: slow = %v, want %v", e.Name, e.Slow, slowNames[e.Name])
		}
		if len(e.ArtifactKinds) == 0 {
			t.Errorf("%s: no artifact kinds", e.Name)
		}
	}
	for _, name := range catalogNames {
		if _, ok := reg.Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := reg.Lookup("nonesuch"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestMatch(t *testing.T) {
	reg := Default()
	if got := len(reg.Match("")); got != len(catalogNames) {
		t.Fatalf("Match(\"\") = %d experiments, want %d", got, len(catalogNames))
	}
	figs := reg.Match("figure")
	want := []string{"figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10"}
	if len(figs) != len(want) {
		t.Fatalf("Match(figure) = %d, want %d", len(figs), len(want))
	}
	for i, e := range figs {
		if e.Name != want[i] {
			t.Errorf("Match(figure)[%d] = %q, want %q", i, e.Name, want[i])
		}
	}
}

// TestResolveCanonicalization: spellings that mean the same assignment
// resolve to the same canonical string; explicit defaults equal omitted
// ones — the property the campaign cache key depends on.
func TestResolveCanonicalization(t *testing.T) {
	reg := Default()
	e, _ := reg.Lookup("ablationB-retention-sweep")

	_, base, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []map[string]string{
		{},
		{"temps": "25,0,-40,-80,-110,-150"},
		{"temps": " 25.0 , 0, -40,-80,-110,-150 "},
		{"offtimes-ms": "1,20,100,1000"},
		{"temps": "25,0,-40,-80,-110,-150", "offtimes-ms": "1.0,20,100,1e3"},
	} {
		_, canon, err := e.Resolve(raw)
		if err != nil {
			t.Fatalf("Resolve(%v): %v", raw, err)
		}
		if canon != base {
			t.Errorf("Resolve(%v) canonical = %q, want %q", raw, canon, base)
		}
	}

	_, other, err := e.Resolve(map[string]string{"temps": "25"})
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("distinct temps resolved to the same canonical string")
	}
}

func TestResolveRejectsBadParams(t *testing.T) {
	reg := Default()
	e, _ := reg.Lookup("ablationB-retention-sweep")
	for _, raw := range []map[string]string{
		{"nope": "1"},
		{"temps": "cold"},
		{"temps": ""},
	} {
		if _, _, err := e.Resolve(raw); err == nil {
			t.Errorf("Resolve(%v) succeeded, want error", raw)
		}
	}

	s72, _ := reg.Lookup("section7.2")
	if _, _, err := s72.Resolve(map[string]string{"boards": "pi5"}); err == nil {
		t.Error("Resolve(boards=pi5) succeeded, want enum error")
	}
	if resolved, _, err := s72.Resolve(map[string]string{"boards": " pi3 , pi4 "}); err != nil {
		t.Errorf("Resolve(boards=pi3,pi4): %v", err)
	} else if resolved["boards"] != "pi3,pi4" {
		t.Errorf("boards canonical = %q, want %q", resolved["boards"], "pi3,pi4")
	}
}

// TestRunFastExperiments executes the instant, simulation-free items
// end-to-end through the registry Run signature.
func TestRunFastExperiments(t *testing.T) {
	reg := Default()
	for _, name := range []string{"table2", "table3", "figure6"} {
		e, _ := reg.Lookup(name)
		resolved, _, err := e.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), Request{Seed: 0x5EED, Params: resolved})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Text == "" {
			t.Errorf("%s: empty text", name)
		}
	}
}

// TestRetentionSweepParamOverride runs the one seeded experiment whose
// grid is overridable with a tiny grid, proving the params actually reach
// the physics.
func TestRetentionSweepParamOverride(t *testing.T) {
	reg := Default()
	e, _ := reg.Lookup("ablationB-retention-sweep")
	resolved, _, err := e.Resolve(map[string]string{"temps": "25", "offtimes-ms": "1"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{Seed: 1, Params: resolved})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "25°") {
		t.Errorf("override output missing 25° row:\n%s", res.Text)
	}
	if strings.Contains(res.Text, "-150") {
		t.Errorf("override output still contains default -150° row:\n%s", res.Text)
	}
}

// TestRunHonoursCancelledContext: a grid experiment with a dead context
// returns promptly with ctx.Err.
func TestRunHonoursCancelledContext(t *testing.T) {
	reg := Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := reg.Lookup("ablationB-retention-sweep")
	resolved, _, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, Request{Seed: 1, Params: resolved}); err == nil {
		t.Fatal("Run with cancelled context succeeded")
	}
}

// TestResolveHexKind pins the HexKind canonicalization: prefix and
// letter-case variants of the same key bytes address the same cache
// entry, and malformed hex is rejected.
func TestResolveHexKind(t *testing.T) {
	reg := Default()
	e, _ := reg.Lookup("sca-cpa")
	_, base, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []map[string]string{
		{"key": "2b7e151628aed2a6abf7158809cf4f3c"},
		{"key": "2B7E151628AED2A6ABF7158809CF4F3C"},
		{"key": "0x2b7e151628AED2A6abf7158809cf4f3c"},
		{"key": " 2b7e151628aed2a6abf7158809cf4f3c "},
	} {
		_, canon, err := e.Resolve(raw)
		if err != nil {
			t.Fatalf("Resolve(%v): %v", raw, err)
		}
		if canon != base {
			t.Errorf("Resolve(%v) canonical = %q, want default %q", raw, canon, base)
		}
	}
	for _, bad := range []string{"", "2b7", "zz7e151628aed2a6abf7158809cf4f3c", "0x"} {
		if _, _, err := e.Resolve(map[string]string{"key": bad}); err == nil {
			t.Errorf("Resolve(key=%q) succeeded, want error", bad)
		}
	}
	_, other, err := e.Resolve(map[string]string{"key": "000102030405060708090a0b0c0d0e0f"})
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("distinct keys resolved to the same canonical string")
	}
}

// TestRunTraceCapture executes the trace-capture experiment through the
// registry surface with a tiny parameter set and checks the binary
// artifact is tagged and non-trivial.
func TestRunTraceCapture(t *testing.T) {
	reg := Default()
	e, _ := reg.Lookup("trace-capture")
	resolved, _, err := e.Resolve(map[string]string{"traces": "2", "samples-window": "64"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{Seed: 0x5EED, Params: resolved})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "" {
		t.Error("trace-capture: empty text")
	}
	if len(res.Artifacts) != 1 {
		t.Fatalf("trace-capture: %d artifacts, want 1", len(res.Artifacts))
	}
	a := res.Artifacts[0]
	if a.Name != "traces.vbtr" || a.Kind != "trace" {
		t.Errorf("artifact = %q kind %q, want traces.vbtr kind trace", a.Name, a.Kind)
	}
	if len(a.Data) < 16 {
		t.Errorf("trace artifact implausibly small: %d bytes", len(a.Data))
	}
	if ArtifactContentType(a.Kind) != "application/octet-stream" {
		t.Errorf("trace content type = %q", ArtifactContentType(a.Kind))
	}
}

// TestFloatParamsRejectNonFinite: every float-list parameter of every
// catalog experiment refuses NaN and ±Inf at Resolve, so a campaign
// submission fails before a job exists instead of reaching the
// simulator.
func TestFloatParamsRejectNonFinite(t *testing.T) {
	n := 0
	for _, e := range Default().Experiments() {
		for _, ps := range e.Params {
			if ps.Kind != FloatListKind {
				continue
			}
			n++
			for _, v := range []string{"NaN", "+Inf", "-Inf", "1,NaN"} {
				if _, _, err := e.Resolve(map[string]string{ps.Name: v}); err == nil {
					t.Errorf("%s: Resolve(%s=%s) succeeded, want error", e.Name, ps.Name, v)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the catalog has no float-list parameter; test is vacuous")
	}
}

// TestRunRejectsOutOfRangeFloats: finite values that the physics cannot
// take — a temperature at or below absolute zero, a negative or
// clock-overflowing off-time, a negative pulse depth — resolve, but Run
// refuses them before building a board. The context is cancelled, so
// only the range check can produce the error.
func TestRunRejectsOutOfRangeFloats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct{ exp, param, value string }{
		{"ablationB-retention-sweep", "temps", "-300"},
		{"ablationB-retention-sweep", "temps", "25,-273.15"},
		{"ablationB-retention-sweep", "offtimes-ms", "-5"},
		{"ablationB-retention-sweep", "offtimes-ms", "1e300"},
		{"glitch-search", "depths", "0.1,-0.05"},
	} {
		e, _ := Default().Lookup(c.exp)
		resolved, _, err := e.Resolve(map[string]string{c.param: c.value})
		if err != nil {
			t.Fatalf("%s: Resolve(%s=%s): %v", c.exp, c.param, c.value, err)
		}
		_, err = e.Run(ctx, Request{Seed: 1, Params: resolved})
		if err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("%s with %s=%s: Run returned %v, want a range error", c.exp, c.param, c.value, err)
		}
	}
}
