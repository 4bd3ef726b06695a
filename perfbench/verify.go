package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/registry"
)

// goldenSeed is the seed internal/experiments/determinism_test.go pins
// its rendered outputs at; goldenDigests copies those pins.
const goldenSeed uint64 = 0x5EED

var goldenDigests = map[string]string{
	"figure7": "462a2228f15b896b729033cdb16e51edaa21437575a3ceba1c7481c21116c0e0",
	"figure8": "f8a5f69d4c2f614ea515e3e3ee9ff37ec8a27edf0b4c2a30c12729e988d20ee5",
	"table4":  "2428a16c7c3b81d1b2d4ed521ddbb784ee5875897ca934c103112309ff4c95e9",
}

// digest hashes an experiment's rendered output. A text-only result
// hashes to the SHA-256 of its text, which is what the golden pins are;
// artifacts are appended length-prefixed.
func digest(res *registry.Result) string {
	h := sha256.New()
	h.Write([]byte(res.Text))
	for _, a := range res.Artifacts {
		for _, f := range [][]byte{[]byte(a.Name), []byte(a.Kind), a.Data} {
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
			h.Write(n[:])
			h.Write(f)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifier checks every op's output and counts the ones that fail.
type verifier struct {
	// seen holds this run's digest per experiment@seed; ledger holds
	// earlier runs' digests of the same build.
	seen   map[string]string
	ledger map[string]string
	failed int
	errs   []string
}

func newVerifier(ledger map[string]string) *verifier {
	return &verifier{seen: map[string]string{}, ledger: ledger}
}

func (v *verifier) fail(format string, args ...any) bool {
	v.failed++
	if len(v.errs) < 20 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
	return false
}

// checkDigest verifies one experiment output: the golden pin at the
// pinned seed, and for every seed the same digest as any earlier run of
// the same experiment and seed, in this process or a previous one.
func (v *verifier) checkDigest(exp string, seed uint64, d string) bool {
	key := fmt.Sprintf("%s@%d", exp, seed)
	if g, ok := goldenDigests[exp]; ok && seed == goldenSeed && d != g {
		return v.fail("%s: digest %s, golden pin %s", key, d, g)
	}
	if s, ok := v.seen[key]; ok && s != d {
		return v.fail("%s: digest %s differs from %s earlier in this run", key, d, s)
	}
	if l, ok := v.ledger[key]; ok && l != d {
		return v.fail("%s: digest %s differs from %s in an earlier run", key, d, l)
	}
	v.seen[key] = d
	return true
}

// checkBody verifies a served result body against the reference bytes.
func (v *verifier) checkBody(what string, got, want []byte) bool {
	if !bytes.Equal(got, want) {
		return v.fail("%s: body (%d bytes) differs from the standalone reference (%d bytes)", what, len(got), len(want))
	}
	return true
}

// selfTest proves the verifier rejects what it must: a result whose
// digest is not the golden pin, and a body with one corrupted byte.
// Both must be counted as failed.
func selfTest() error {
	v := newVerifier(map[string]string{})
	v.checkDigest("figure8", goldenSeed, digest(&registry.Result{Text: "not figure 8"}))
	body := []byte(`{"runs":[{"experiment":"table2"}]}`)
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)/2] ^= 0x20
	v.checkBody("self-test", corrupt, body)
	if v.failed != 2 {
		return fmt.Errorf("verifier self-test: %d of 2 corrupted outputs counted as failed", v.failed)
	}
	return nil
}

func ledgerPath(build string) string {
	return filepath.Join(outDir, "digests-"+build+".json")
}

// loadLedger reads the digests earlier runs of this build recorded.
func loadLedger(build string) (map[string]string, error) {
	m := map[string]string{}
	b, err := os.ReadFile(ledgerPath(build))
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("digest ledger: %w", err)
	}
	return m, nil
}

// saveLedger merges this run's digests into the ledger file, replacing
// it atomically.
func (v *verifier) saveLedger(build string) error {
	for k, d := range v.seen {
		v.ledger[k] = d
	}
	b, err := json.Marshal(v.ledger)
	if err != nil {
		return err
	}
	tmp := ledgerPath(build) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, ledgerPath(build))
}
