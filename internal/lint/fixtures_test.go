package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureConfig marks the testdata packages the way DefaultConfig marks
// the real module: detpkg/maporderpkg are deterministic, servpkg/lockpkg
// are the service layer.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{"detpkg", "maporderpkg"},
		ServicePkgs:       []string{"servpkg", "lockpkg"},
		ModulePath:        "fixture",
	}
}

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

func loadFixture(t *testing.T) *Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = LoadTree("testdata/src", "fixture")
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture tree: %v", fixtureErr)
	}
	return fixtureMod
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wantsIn parses `// want "VV-XXXNNN"` expectation comments from every
// fixture file of the package, keyed by file:line.
func wantsIn(t *testing.T, dir string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", abs, i+1)
				out[key] = append(out[key], strings.Fields(m[1])...)
			}
		}
	}
	return out
}

// TestFixtureDiagnostics is the analyzer conformance suite: every
// fixture package must produce exactly its `// want` expectations —
// nothing missing, nothing extra. This is also the acceptance proof
// that a seeded violation fails the gate: each fixture seeds real
// violations and the analyzers must flag them.
func TestFixtureDiagnostics(t *testing.T) {
	mod := loadFixture(t)
	cfg := fixtureConfig()
	diags := Run(mod, cfg, All())

	for _, pkgName := range []string{"detpkg", "servpkg", "maporderpkg", "hotpathpkg", "hotclosurepkg", "lockpkg", "errpkg", "snappkg"} {
		t.Run(pkgName, func(t *testing.T) {
			pkg := mod.Packages["fixture/"+pkgName]
			if pkg == nil {
				t.Fatalf("fixture package %s not loaded", pkgName)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture %s has type errors: %v", pkgName, pkg.TypeErrors)
			}
			want := wantsIn(t, pkg.Dir)
			got := map[string][]string{}
			for _, d := range diags {
				if d.Package == pkg.ImportPath {
					key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
					got[key] = append(got[key], d.ID)
				}
			}
			for key, ids := range want {
				sort.Strings(ids)
				g := append([]string(nil), got[key]...)
				sort.Strings(g)
				if strings.Join(ids, " ") != strings.Join(g, " ") {
					t.Errorf("%s: want diagnostics %v, got %v", key, ids, g)
				}
			}
			for key, ids := range got {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: unexpected diagnostics %v", key, ids)
				}
			}
		})
	}
}

// TestFixtureSeededViolationFailsGate pins the CLI contract at the
// library level: the fixture tree yields a non-empty finding list, so
// voltvet exits non-zero on it.
func TestFixtureSeededViolationFailsGate(t *testing.T) {
	mod := loadFixture(t)
	if diags := Run(mod, fixtureConfig(), All()); len(diags) == 0 {
		t.Fatal("fixture tree produced zero diagnostics; the gate would pass a seeded violation")
	}
}
