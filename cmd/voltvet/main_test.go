package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a minimal module whose internal/sram package
// — deterministic under the default configuration — calls time.Now.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"internal/sram/sram.go": `// Package sram is a fixture deterministic package.
package sram

import "time"

// Stamp smuggles wall-clock time into the deterministic core.
func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolationExitsNonZero is the end-to-end acceptance check:
// voltvet pointed at a module with a determinism violation seeded into
// a deterministic package exits 1 and names the diagnostic.
func TestSeededViolationExitsNonZero(t *testing.T) {
	dir := writeTempModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "VV-DET001") {
		t.Errorf("stdout missing VV-DET001:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr missing finding count:\n%s", stderr.String())
	}
}

// TestOneSuppressionMechanism: inline directives are the only way to
// silence a finding, so the grandfathering flags are usage errors and
// -h lists none of them.
func TestOneSuppressionMechanism(t *testing.T) {
	dir := writeTempModule(t)
	for _, args := range [][]string{
		{"-C", dir, "-write-baseline", "./..."},
		{"-C", dir, "-baseline", filepath.Join(dir, "lint.baseline"), "./..."},
		{"-C", dir, "-v", "./..."},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (unknown flag)", args[2], code)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	if strings.Contains(stderr.String(), "baseline") {
		t.Errorf("-h still lists a grandfathering flag:\n%s", stderr.String())
	}
}

// TestPatternFilter confirms package patterns restrict reporting: the
// violation lives in internal/sram, so ./internal/other/... is clean.
func TestPatternFilter(t *testing.T) {
	dir := writeTempModule(t)
	other := filepath.Join(dir, "internal", "other")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "// Package other is empty.\npackage other\n"
	if err := os.WriteFile(filepath.Join(other, "other.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./internal/other/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("filtered run exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if code := run([]string{"-C", dir, "./internal/sram"}, &stdout, &stderr); code != 1 {
		t.Fatalf("targeted run exit = %d, want 1", code)
	}
}

// TestChecksFilter pins the -checks family selection: the seeded
// violation is a determinism finding, so running only the snapshot
// family is clean, running the det family reports it, and a typoed
// family name is a usage error, not a silent no-op.
func TestChecksFilter(t *testing.T) {
	dir := writeTempModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-checks", "snap,hot", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-checks=snap,hot exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-checks", "det", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-checks=det exit = %d, want 1\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "VV-DET001") {
		t.Errorf("-checks=det output missing VV-DET001:\n%s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-checks", "snpa", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-checks=snpa exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown check "snpa"`) {
		t.Errorf("stderr missing unknown-check error:\n%s", stderr.String())
	}
}

// TestJSONFormat parses -format=json output: the seeded finding appears
// with its stable ID, module-relative file and position, and the exit
// code is 1.
func TestJSONFormat(t *testing.T) {
	dir := writeTempModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-format", "json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("json run exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.ID != "VV-DET001" || f.File != filepath.Join("internal", "sram", "sram.go") ||
		f.Line == 0 || f.Package != "tmpmod/internal/sram" {
		t.Errorf("unexpected finding shape: %+v", f)
	}
	if strings.Contains(stdout.String(), "suppressed") {
		t.Errorf("JSON still carries a suppression field:\n%s", stdout.String())
	}

	if code := run([]string{"-C", dir, "-format", "yaml", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-format=yaml exit = %d, want 2", code)
	}
}

func TestListCatalog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, id := range []string{"VV-DET001", "VV-MAP001", "VV-HOT001", "VV-HOT006",
		"VV-SNAP001", "VV-SNAP004", "VV-LCK001", "VV-ERR001", "VV-LOAD001", "VV-IGN001"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
	// The check that flagged closure members missing a hand-written
	// marker went with the markers; its ID must not come back.
	if strings.Contains(stdout.String(), "VV-HOT005") {
		t.Errorf("-list output still prints the retired ID:\n%s", stdout.String())
	}
}
