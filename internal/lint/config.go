package lint

import "strings"

// Config names the invariant model: which packages are bound by the
// determinism contract and which form the service layer (lock hygiene
// applies there, and deterministic packages may not import them).
// The hot path is not configurable — it is inferred from the
// //voltvet:hotpath root directives, parsed by the shared directive
// grammar (directive.go).
// Paths are module-path relative (e.g. "internal/sram"), so the same
// config applies to the real module and to synthetic fixture modules
// in tests.
type Config struct {
	// DeterministicPkgs are the module-relative paths of packages whose
	// outputs must be bit-reproducible across runs and GOMAXPROCS
	// settings. The determinism and map-order analyzers run here.
	DeterministicPkgs []string
	// ServicePkgs are the module-relative paths of service-layer
	// packages. Deterministic packages may not import them (VV-DET005),
	// and the lock analyzer runs on them.
	ServicePkgs []string
	// DeterministicExtraImports are module-relative paths deterministic
	// packages may import beyond stdlib and each other (shared pure
	// infrastructure like the parallel runner). Used by the import-graph
	// pin, not by any per-file analyzer.
	DeterministicExtraImports []string
	// ExcludePkgs are module-relative paths skipped entirely (the lint
	// package itself, whose fixtures intentionally violate everything).
	ExcludePkgs []string

	// ModulePath is filled in by the runner from the loaded module so
	// the Is* helpers can compare against full import paths.
	ModulePath string
}

// DefaultConfig returns the repo's invariant model: the simulation core
// plus its pure infrastructure is deterministic; campaign, api,
// registry, the result store, and the fabric form the service layer.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"internal/sram", "internal/dram", "internal/cache",
			"internal/core", "internal/isa", "internal/soc",
			"internal/board", "internal/power", "internal/kernel",
			"internal/sim", "internal/aes", "internal/puf",
			"internal/xrand", "internal/analysis", "internal/experiments",
			"internal/vimg", "internal/runner", "internal/glitch",
			"internal/trace", "internal/sca",
		},
		ServicePkgs: []string{
			"internal/campaign", "internal/api", "internal/registry",
			"internal/store", "internal/fabric",
		},
		DeterministicExtraImports: nil,
		ExcludePkgs:               []string{"internal/lint"},
	}
}

// rel strips the module path prefix from an import path; ok is false
// when the path is outside the module.
func (c *Config) rel(importPath string) (string, bool) {
	if importPath == c.ModulePath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(importPath, c.ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

func contains(set []string, s string) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}

// IsDeterministic reports whether the import path is bound by the
// determinism contract.
func (c *Config) IsDeterministic(importPath string) bool {
	r, ok := c.rel(importPath)
	return ok && contains(c.DeterministicPkgs, r)
}

// IsService reports whether the import path is a service-layer package.
func (c *Config) IsService(importPath string) bool {
	r, ok := c.rel(importPath)
	return ok && contains(c.ServicePkgs, r)
}

// IsExcluded reports whether the package is skipped entirely.
func (c *Config) IsExcluded(importPath string) bool {
	r, ok := c.rel(importPath)
	return ok && contains(c.ExcludePkgs, r)
}

// DeterministicImportAllowed reports whether a deterministic package may
// import dep: stdlib (anything outside the module), another
// deterministic package, or a listed extra.
func (c *Config) DeterministicImportAllowed(dep string) bool {
	r, ok := c.rel(dep)
	if !ok {
		return true // stdlib
	}
	return contains(c.DeterministicPkgs, r) || contains(c.DeterministicExtraImports, r)
}
