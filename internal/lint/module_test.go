package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce sync.Once
	moduleMod  *Module
	moduleErr  error
)

// loadRepoModule loads the real repository module once per test binary;
// type-checking the whole module against the source importer is the
// expensive step, so every module-level test shares it.
func loadRepoModule(t *testing.T) *Module {
	t.Helper()
	moduleOnce.Do(func() {
		root, _, err := FindModuleRoot(".")
		if err != nil {
			moduleErr = err
			return
		}
		moduleMod, moduleErr = LoadModule(root)
	})
	if moduleErr != nil {
		t.Fatalf("loading repo module: %v", moduleErr)
	}
	return moduleMod
}

// TestModuleClean is the gate the CI script relies on: the repository
// itself must produce zero non-baselined diagnostics under the default
// configuration. If this fails, either fix the violation or — for a
// deliberate, reviewed exception — add a //voltvet:ignore with a reason
// or a lint.baseline entry.
func TestModuleClean(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	diags := Run(mod, cfg, All())

	base, err := ParseBaseline(filepath.Join(mod.Root, "lint.baseline"))
	if err != nil {
		t.Fatalf("parsing lint.baseline: %v", err)
	}
	fresh, _ := base.Filter(diags)
	for _, d := range fresh {
		t.Errorf("%s: %s %s (%s)", d.Pos, d.ID, d.Message, d.Package)
	}
}

// TestDeterministicPackagesExist guards the configuration against
// bit-rot: every package named in DefaultConfig must actually exist in
// the module, so a rename cannot silently drop a package out of the
// deterministic set.
func TestDeterministicPackagesExist(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	for _, rel := range append(append([]string{}, cfg.DeterministicPkgs...), cfg.ServicePkgs...) {
		full := mod.Path + "/" + rel
		if mod.Packages[full] == nil {
			t.Errorf("config names package %s but it is not in the module", rel)
		}
	}
}

// TestDeterministicImportGraph pins the determinism boundary at the
// import-graph level: the deterministic set is import-closed. Every
// module-internal import of a deterministic package must itself be a
// deterministic package (never campaign/api/registry, never cmd/).
func TestDeterministicImportGraph(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	for _, pkg := range mod.Sorted {
		if !cfg.IsDeterministic(pkg.ImportPath) {
			continue
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, mod.Path+"/") {
				continue // stdlib
			}
			if !cfg.DeterministicImportAllowed(imp) {
				t.Errorf("determinism boundary broken: %s imports %s, which is outside the deterministic set",
					pkg.ImportPath, imp)
			}
		}
	}
}

// formerHotpathChain is the hand-maintained annotation list this repo
// carried before closure inference, frozen as test data: the functions
// accumulated by reading call chains off benchmarks and transcribing
// them by hand, 37 of the original 38 (DRAM's markSnapRange was deleted
// with its dirty-page bitmap). It survives as a lower bound under the
// hand-edited testdata/hotpath_closure.txt: editing that list to match a
// shrunken closure cannot drop one of these functions out of the
// allocation checks without a second, deliberate edit here. It is never
// updated when new functions go hot; only a rename or deletion of a
// listed function changes it.
var formerHotpathChain = []string{
	"(*repro/internal/isa.CPU).ExecDecoded",
	"(*repro/internal/isa.CPU).Step",
	"(*repro/internal/isa.CPU).exec",
	"(*repro/internal/isa.CPU).execHooked",
	"(*repro/internal/isa.TraceSink).BusAccess",
	"(*repro/internal/isa.TraceSink).RegWrite",
	"(*repro/internal/isa.TraceSink).Retire",
	"(*repro/internal/soc.SoC).FetchDecoded",
	"(*repro/internal/soc.SoC).Load",
	"(*repro/internal/soc.SoC).Store",
	"(*repro/internal/soc.SoC).access",
	"(*repro/internal/soc.SoC).installPredec",
	"(*repro/internal/soc.SoC).predecGen",
	"(*repro/internal/soc.SoC).runSuperblock",
	"(*repro/internal/soc.SoC).updateHistoryBuffers",
	"(*repro/internal/isa.CPU).X",
	"(*repro/internal/isa.CPU).writeX",
	"(*repro/internal/cache.Cache).Access",
	"(*repro/internal/cache.Cache).TouchFetchHit",
	"(*repro/internal/cache.Cache).accessECC",
	"(*repro/internal/cache.Cache).bypass",
	"(*repro/internal/cache.Cache).index",
	"(*repro/internal/cache.Cache).lookup",
	"(*repro/internal/cache.Cache).markDirty",
	"(*repro/internal/cache.Cache).memoStore",
	"(*repro/internal/cache.Cache).touch",
	"(*repro/internal/dram.Module).markRange",
	"(*repro/internal/dram.Module).resolveRange",
	"(*repro/internal/sram.Array).PeekUint64",
	"(*repro/internal/sram.Array).ReadBytesInto",
	"(*repro/internal/sram.Array).ReadUint64",
	"(*repro/internal/sram.Array).ReadUintN",
	"(*repro/internal/sram.Array).RestoreSnapshot",
	"(*repro/internal/sram.Array).SnapshotInto",
	"(*repro/internal/sram.Array).WriteUint64",
	"(*repro/internal/sram.Array).WriteUintN",
	"(*repro/internal/sram.Array).markSnapPages",
}

// TestHotpathClosureCoversFormerChain checks that the inferred closure
// is a superset of every function the old hand audit had pinned. A
// regression here means closure inference lost a path the dynamic
// zero-alloc gates exercise — a broken call-graph edge or a deleted
// root — not that the list is out of date.
func TestHotpathClosureCoversFormerChain(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	hp := InferHotPath(mod, cfg)

	if len(hp.Roots) == 0 {
		t.Fatal("no //voltvet:hotpath root seeds found; closure inference has nothing to propagate from")
	}
	var missing []string
	for _, name := range formerHotpathChain {
		if _, ok := hp.Closure[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("former hand-pinned chain member %s is not in the inferred closure (roots %v)", name, hp.Roots)
	}
	if len(hp.Closure) < len(formerHotpathChain) {
		t.Errorf("inferred closure has %d functions, fewer than the former hand-pinned %d",
			len(hp.Closure), len(formerHotpathChain))
	}
}

// TestHotpathClosureAnnotated checks that the per-function allocation
// checks cover the entire inferred hot path. Functions no longer carry
// a per-function marker; the hotpath analyzer selects a declaration
// when its *types.Func is a closure member. That match is by object
// identity, so a closure member the analyzer never visits (an
// instantiated generic, an excluded package, a declaration without a
// body) would escape HOT001–004 silently. This mirrors the analyzer's
// own selection and requires it to reach every closure member.
func TestHotpathClosureAnnotated(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	hp := InferHotPath(mod, cfg)
	a := hotpathAnalyzer()

	walked := map[string]bool{}
	for _, pkg := range mod.Sorted {
		if cfg.IsExcluded(pkg.ImportPath) || (a.Applies != nil && !a.Applies(cfg, pkg)) {
			continue
		}
		for _, f := range pkg.Files {
			for _, fd := range funcBodies(f) {
				if fn := DeclaredFunc(pkg, fd); fn != nil && hp.members[fn] {
					walked[fn.FullName()] = true
				}
			}
		}
	}
	var unchecked []string
	for name := range hp.Closure {
		if !walked[name] {
			unchecked = append(unchecked, name)
		}
	}
	sort.Strings(unchecked)
	for _, name := range unchecked {
		t.Errorf("%s is in the inferred hot-path closure but the hotpath analyzer never walks its body", name)
	}
}

// TestHotpathClosureGolden pins the inferred hot path to
// testdata/hotpath_closure.txt, one types.Func FullName per line,
// sorted. The allocation and dispatch checks run on exactly the closure,
// so a lost call edge or a deleted root would otherwise drop functions
// out of them without a sound. When the hot path changes on purpose,
// edit the list by hand: each + or - line below names one function.
func TestHotpathClosureGolden(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	hp := InferHotPath(mod, cfg)

	data, err := os.ReadFile(filepath.Join("testdata", "hotpath_closure.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	want := map[string]bool{}
	for i, name := range lines {
		if i > 0 && lines[i-1] >= name {
			t.Errorf("testdata/hotpath_closure.txt:%d: %q is out of order or repeated; keep the list sorted", i+1, name)
		}
		want[name] = true
	}
	var diff []string
	for name := range hp.Closure {
		if !want[name] {
			diff = append(diff, "+ "+name)
		}
	}
	for name := range want {
		if _, ok := hp.Closure[name]; !ok {
			diff = append(diff, "- "+name)
		}
	}
	sort.Slice(diff, func(i, j int) bool { return diff[i][2:] < diff[j][2:] })
	for _, d := range diff {
		t.Errorf("hot-path closure (roots %v) differs from testdata/hotpath_closure.txt: %s", hp.Roots, d)
	}
}
