package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unreachedExports returns the FullNames of the exported functions and
// methods declared under internal/ that no non-test code of the module
// references. perfbench, cmd/, examples/ and the root package count as
// callers; test files do not, since the loader reads none. A method that
// implements an interface declared in the module or in the standard
// library counts as reached: it is called through the interface.
func unreachedExports(mod *Module) map[string]bool {
	used := map[*types.Func]bool{}
	// ifaces maps a method name to the interfaces that declare it.
	ifaces := map[string][]*types.Interface{
		"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	seen := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if named, _ := tn.Type().(*types.Named); !ok || !it.IsMethodSet() || named != nil && named.TypeParams().Len() > 0 {
				continue // not an interface, a constraint, or generic
			}
			for i := range it.NumMethods() {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	for _, pkg := range mod.Sorted {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		addIfaces(pkg.Types)
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if types.IsInterface(t) {
			return true // an interface's own method is abstract
		}
		if _, ptr := t.(*types.Pointer); !ptr {
			t = types.NewPointer(t) // the pointer's method set holds both
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(t, it) {
				return true
			}
		}
		return false
	}
	out := map[string]bool{}
	for _, pkg := range mod.Sorted {
		if !strings.HasPrefix(pkg.ImportPath, mod.Path+"/internal/") {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			if fn, ok := obj.(*types.Func); ok && fn.Exported() && !used[fn] && !implements(fn) {
				out[fn.FullName()] = true
			}
		}
	}
	return out
}

// TestUnreachedExportsGolden pins unreachedExports to
// testdata/unreached_exports.txt: one sorted FullName per line, a tab,
// and the reason the function stays although no production code calls
// it. A new entry is production code that only tests reach; delete it,
// move it into a test file, or add it here with its reason. Each + or -
// line below names one function; fix the list by hand.
func TestUnreachedExportsGolden(t *testing.T) {
	mod := loadRepoModule(t)
	for _, d := range goldenDiff(unreachedExports(mod), readReasonedGolden(t, "unreached_exports.txt")) {
		t.Errorf("the exports no production code reaches differ from testdata/unreached_exports.txt: %s", d)
	}
}

// readReasonedGolden reads testdata/<file>, one sorted name per line, a
// tab and the reason the name stays, and returns the set of names. A
// line with no reason, or out of order, fails the test.
func readReasonedGolden(t *testing.T, file string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	prev := ""
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, reason, _ := strings.Cut(line, "\t")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testdata/%s:%d: %q gives no reason after a tab", file, i+1, name)
		}
		if name <= prev {
			t.Errorf("testdata/%s:%d: %q is out of order or repeated; keep the list sorted", file, i+1, name)
		}
		prev = name
		want[name] = true
	}
	return want
}
