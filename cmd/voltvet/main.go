// Command voltvet machine-checks the repo's determinism, purity, and
// hot-path invariants. It is the static half of the reproducibility
// contract: the golden SHA-256 pins prove the tree is deterministic for
// the seeds the tests sample, voltvet proves nobody wired a source of
// nondeterminism (or an allocation, or a lock bug) into the code in the
// first place.
//
// Usage:
//
//	voltvet [flags] ./...
//
// Flags:
//
//	-C dir             analyze the module containing dir (default ".")
//	-baseline file     baseline path (default <module root>/lint.baseline)
//	-write-baseline    rewrite the baseline to grandfather current findings
//	-checks fams       comma-separated check families (det, map, hot, snap,
//	                   locks, err; analyzer names also accepted; default all)
//	-format f          output format: text (default) or json
//	-list              print the diagnostic catalog and exit
//	-v                 also print baselined findings
//
// Exit status is 1 when any non-baselined diagnostic is found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outf/outln write to one of run's injected streams. A broken stream
// has nowhere to report, so the write error is explicitly discarded.
func outf(w io.Writer, format string, a ...any) { _, _ = fmt.Fprintf(w, format, a...) }

func outln(w io.Writer, a ...any) { _, _ = fmt.Fprintln(w, a...) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("voltvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "analyze the module containing this directory")
	baselinePath := fs.String("baseline", "", "baseline file (default <module root>/lint.baseline)")
	writeBaseline := fs.Bool("write-baseline", false, "rewrite the baseline to grandfather current findings")
	checks := fs.String("checks", "", "comma-separated check families to run (det, map, hot, snap, locks, err; default all)")
	format := fs.String("format", "text", "output format: text or json")
	list := fs.Bool("list", false, "print the diagnostic catalog and exit")
	verbose := fs.Bool("v", false, "also print baselined findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printCatalog(stdout)
		return 0
	}
	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		outln(stderr, "voltvet:", err)
		return 2
	}
	if *format != "text" && *format != "json" {
		outf(stderr, "voltvet: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		outln(stderr, "voltvet:", err)
		return 2
	}
	cfg := lint.DefaultConfig()
	cfg.ModulePath = mod.Path

	// Package patterns ("./...", "./internal/...") filter which packages
	// are reported; the whole module is always loaded, since
	// type-checking needs the dependency closure anyway.
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags := lint.Run(mod, cfg, analyzers)
	diags = filterByPatterns(diags, mod.Path, patterns)

	if *baselinePath == "" {
		*baselinePath = filepath.Join(mod.Root, "lint.baseline")
	}
	if *writeBaseline {
		if err := os.WriteFile(*baselinePath, []byte(lint.FormatBaseline(diags)), 0o644); err != nil {
			outln(stderr, "voltvet:", err)
			return 2
		}
		outf(stdout, "voltvet: wrote %d finding(s) to %s\n", len(diags), *baselinePath)
		return 0
	}
	base, err := lint.ParseBaseline(*baselinePath)
	if err != nil {
		outln(stderr, "voltvet:", err)
		return 2
	}
	fresh, baselined := base.Filter(diags)
	if *format == "json" {
		writeJSON(stdout, mod.Root, diags, baselined)
		if len(fresh) > 0 {
			return 1
		}
		return 0
	}
	if *verbose {
		for _, d := range baselined {
			outf(stdout, "%s [baselined]\n", d)
		}
	}
	for _, d := range fresh {
		outln(stdout, d)
	}
	if len(fresh) > 0 {
		outf(stderr, "voltvet: %d finding(s)", len(fresh))
		if len(baselined) > 0 {
			outf(stderr, " (+%d baselined)", len(baselined))
		}
		outln(stderr)
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -checks flag: empty means the full
// suite; otherwise a comma-separated list of family aliases (det, map,
// hot, snap, locks, err) or exact analyzer names. "hot" is the hotpath
// analyzer: the allocation and dispatch checks on the inferred closure.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if spec == "" {
		return all, nil
	}
	aliases := map[string][]string{
		"det":   {"determinism"},
		"map":   {"maporder"},
		"hot":   {"hotpath"},
		"snap":  {"snapshot"},
		"locks": {"locks"},
		"err":   {"errcheck"},
	}
	byName := map[string]bool{}
	for _, a := range all {
		byName[a.Name] = true
	}
	want := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "":
		case aliases[tok] != nil:
			for _, n := range aliases[tok] {
				want[n] = true
			}
		case byName[tok]:
			want[tok] = true
		default:
			return nil, fmt.Errorf("unknown check %q (families: det, map, hot, snap, locks, err)", tok)
		}
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// jsonFinding is the machine-readable shape of one diagnostic. The
// field set is a stability contract for CI consumers: id and
// file:line:col locate the finding, suppressed distinguishes fresh
// findings ("") from grandfathered ones ("baseline"). Findings silenced
// by an inline voltvet:ignore never appear — they are dropped before
// reporting.
type jsonFinding struct {
	ID         string `json:"id"`
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"` // module-root relative
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Package    string `json:"package"`
	Message    string `json:"message"`
	Suppressed string `json:"suppressed"`
}

func writeJSON(w io.Writer, root string, diags, baselined []lint.Diagnostic) {
	isBase := map[lint.Diagnostic]bool{}
	for _, d := range baselined {
		isBase[d] = true
	}
	out := []jsonFinding{}
	for _, d := range diags {
		suppressed := ""
		if isBase[d] {
			suppressed = "baseline"
		}
		out = append(out, jsonFinding{
			ID:         d.ID,
			Analyzer:   d.Analyzer,
			File:       strings.TrimPrefix(strings.TrimPrefix(d.Pos.Filename, root), string(filepath.Separator)),
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Package:    d.Package,
			Message:    d.Message,
			Suppressed: suppressed,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// filterByPatterns keeps diagnostics whose package matches any
// ./...-style pattern, interpreted relative to the module root.
func filterByPatterns(diags []lint.Diagnostic, modpath string, patterns []string) []lint.Diagnostic {
	match := func(pkg string) bool {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg, modpath), "/")
		for _, p := range patterns {
			p = strings.TrimPrefix(p, "./")
			if p == "..." || p == "" {
				return true
			}
			if prefix, ok := strings.CutSuffix(p, "/..."); ok {
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					return true
				}
				continue
			}
			if rel == strings.TrimSuffix(p, "/") {
				return true
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if match(d.Package) {
			out = append(out, d)
		}
	}
	return out
}

func printCatalog(w io.Writer) {
	outln(w, "voltvet diagnostic catalog:")
	for _, a := range lint.All() {
		outf(w, "  %-12s %s\n", a.Name, a.Doc)
		for _, id := range a.IDs {
			outf(w, "      %s\n", id)
		}
	}
	outln(w, "  loader       packages that fail to type-check")
	outln(w, "      VV-LOAD001")
	outln(w, "  ignore       malformed voltvet directives (ignore, nosnap, hotpath)")
	outln(w, "      VV-IGN001")
}
