// Command experiments regenerates the paper's evaluation: every table and
// figure, plus the ablations, printed to stdout and optionally written to
// an output directory (text reports and PBM bitmaps for the image
// figures). The catalog itself lives in internal/registry, shared with
// the voltbootd campaign service.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -run figure     # run experiments whose name contains "figure"
//	experiments -out results/   # also write artifacts
//	experiments -seed 7 -skip-slow
//	experiments -json           # one machine-readable record per experiment
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/registry"
)

// record is the -json output: one line per experiment.
type record struct {
	Name    string  `json:"name"`
	Seed    uint64  `json:"seed"`
	Skipped bool    `json:"skipped,omitempty"`
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	// SHA256 is the hash of the rendered output — the same quantity the
	// golden determinism tests pin, so drift is visible from the CLI.
	SHA256    string   `json:"sha256,omitempty"`
	Output    string   `json:"output,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
}

func writeFile(outDir, name string, data []byte) error {
	if outDir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

func emitJSON(rec record) {
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func main() {
	var (
		runFilter = flag.String("run", "", "only run experiments whose name contains this substring")
		outDir    = flag.String("out", "", "directory for artifacts (text + PBM)")
		seed      = flag.Uint64("seed", 0x5EED, "experiment seed")
		skipSlow  = flag.Bool("skip-slow", false, "skip the experiments marked slow in the catalog")
		jsonOut   = flag.Bool("json", false, "emit one JSON record per experiment instead of text")
	)
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	failed := 0
	for _, e := range registry.Default().Experiments() {
		if *runFilter != "" && !strings.Contains(e.Name, *runFilter) {
			continue
		}
		if *skipSlow && e.Slow {
			if *jsonOut {
				emitJSON(record{Name: e.Name, Seed: *seed, Skipped: true})
			} else {
				fmt.Printf("=== %s: skipped (slow)\n\n", e.Name)
			}
			continue
		}
		params, _, err := e.Resolve(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		start := time.Now()
		res, err := e.Run(context.Background(), registry.Request{Seed: *seed, Params: params})
		elapsed := time.Since(start).Seconds()
		if err != nil {
			if *jsonOut {
				emitJSON(record{Name: e.Name, Seed: *seed, Error: err.Error(), Seconds: elapsed})
			} else {
				fmt.Printf("=== %s: FAILED: %v\n\n", e.Name, err)
			}
			failed++
			continue
		}
		rec := record{
			Name: e.Name, Seed: *seed, OK: true, Seconds: elapsed,
			SHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(res.Text))),
		}
		for _, a := range res.Artifacts {
			if err := writeFile(*outDir, a.Name, a.Data); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if *outDir != "" {
				rec.Artifacts = append(rec.Artifacts, a.Name)
			}
		}
		if *jsonOut {
			rec.Output = res.Text
			emitJSON(rec)
		} else {
			fmt.Printf("=== %s (%.1fs)\n%s\n", e.Name, elapsed, res.Text)
		}
		if err := writeFile(*outDir, e.Name+".txt", []byte(res.Text)); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
