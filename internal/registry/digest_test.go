package registry

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// catalogDigestSeed is the seed every catalog pin runs at.
const catalogDigestSeed = 0x5EED

// catalogDigests pins the SHA-256 of every catalog experiment's complete
// output (text plus every artifact, see resultDigest) at default params
// and catalogDigestSeed. The values were captured at commit 8bcf1b3,
// before SRAM power-ups were deferred and DRAM retention was drawn on
// demand, so they machine-check that deferring or skipping rng draws
// never moves a single output byte. The four older golden pins in
// internal/experiments cover only Figure 7/8, Table 1 and Table 4; a bug
// in, say, the DRAM retention stream would leave all four passing and
// only change ablationC-dram-coldboot. If a deliberate model change moves
// a digest, re-derive it and say so in the commit message.
var catalogDigests = map[string]string{
	"table1":                    "9a95b9c511f3feaa3256fa97d94e0cb1e116bca31cad9f9dcfe6714edf702b14",
	"figure3":                   "d87a00e1a0f05fdba46976d7d5163980dd06a171864ad783bbfb02c4a36fed4d",
	"table2":                    "2df764590e2095c33ed744d33fed4f0930ece73284e2df0120f6442803a663ec",
	"table3":                    "3fb3cf05e2b3fc72e6891a4fb487c1e799600f709b9148a8dc932e61e256d25f",
	"figure4":                   "ea2e0b2fd945a6fef69f88ea11e954c0e7866cf974d2855c951d248415d085aa",
	"figure5":                   "e8420db8756c434b7db8d99a34015bf29da2b616a7b8135e694fdc56d865fa01",
	"figure6":                   "a52202a7aa401e17726f902c22757d05fbb8798f7501843d5dc4ea3c942810c6",
	"figure7":                   "c87f96aa647a66cb6f297ccecc0d96f0c2316729e23214a254f0eb4b27b95dc3",
	"figure8":                   "ec962307e99890452c036fb3852e8a67adefcede8f9dd019f7f2110492077a12",
	"table4":                    "633da00799d5d0c18f046300c26eb5f31789939583c7f54202035152a4c336c8",
	"section7.2":                "0fcaf2e98f7dea436f7df2fb18a715aeb7e4b45b0fa9fc791afa95809204b386",
	"section6.2":                "d0de57b0332b0140b6084f73bdf4f5e31207f8ba41290d5b72379c3f7a6667fe",
	"figure9":                   "c5188d6e802fc70bf63a570fc0be2a160df3dc5f6c5984f3011d2e8c3a8076c3",
	"figure10":                  "e97175fbeada84a5ce48b9e614536417b8612cc8a7bc49dd3cb2e6df938e7eb0",
	"countermeasures":           "5298b4e48ff897420cb0b19b2999ffe61ee6a0f85cdef0ce5d4aeb0091114342",
	"ablationA-probe-sweep":     "603cf529c5206ef362743edd3200fd0d8b1ce257dc6bc3a899d5e1c7350353c9",
	"ablationB-retention-sweep": "93da872c635a3ba7f6602dad8a6f5608b112429b080109ea1aa12bdb5c49c438",
	"ablationC-dram-coldboot":   "a20244f9b380b94aabd21874926bc263d20efa94c0821a621f04742aead18de1",
	"ablationD-imprint":         "36dd98dc295940c08ee4fe836d4d67cccf1af7fb4644eb40d84811208ea7e588",
	"ablationE-history-theft":   "3014f7d957a859918ceda23eef4685a3390c4408043b2b9105a4b8abb504bdab",
	"caselock":                  "eabb989587a65f7d19388789150325c742f6bdac5f1ec870aeebf32932aefe98",
	"ablationF-warm-reboot":     "ac6c2b10d30b4b12e278f502a3c818b4299788ff986e812c971aea528d0679a7",
	"ablationG-context-switch":  "dc9c4ef3a978e931c7f3761482c91f338fb9a4a1a45bf958330f02eb977b6e79",
	"ablationH-puf-clone":       "7a86f882f4be09a9438d7eaec32b386dacfd7cfe4a2b4afd8e9845cd9a9a5e27",
	"mcu-extension":             "3949c11cb3ac3887d94134d159e5f4bd14e796bbd32bc41847edacc42ca75edb",
	"glitchboot-check-skip":     "ed34a8cd93db9bf3b4e2d8c1c874e7dd97433916a073c3f6561ebdc06bfe9d8a",
	"glitchboot-verify-bypass":  "65aa44730b7dabb67765f9ff1dbe3569a35b55a83379537879684d4d49f810c7",
	"glitch-search":             "0b85790e61c4427ce4324d62a077a80d50b4ac3ff88ccb1fe3871789c46409cf",
	"trace-capture":             "f178d419bdce04e4ad87ad444593443a7a3e68148152748014c8abfa77c50921",
	"sca-spa":                   "f52aecfad56839dc9b380374064a55d3e4581a956253393d488eaaedbe85b986",
	"sca-cpa":                   "4943a381cbdc40f77529b446a78ef7f9a034bd49ef709d67f0c94f74e4462f98",
}

// catalogDigestSlow names the experiments that take more than about one
// second on a 2-vCPU host; -short skips them, as it does the Table 4 pin.
var catalogDigestSlow = map[string]bool{
	"table4":                   true,
	"countermeasures":          true,
	"ablationA-probe-sweep":    true,
	"ablationG-context-switch": true,
	"ablationH-puf-clone":      true,
}

// resultDigest hashes a Result with every field length-prefixed, so no
// two distinct results can collide by concatenation: text, then each
// artifact's name, kind and bytes in order.
func resultDigest(r *Result) string {
	h := sha256.New()
	field := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	field([]byte(r.Text))
	for _, a := range r.Artifacts {
		field([]byte(a.Name))
		field([]byte(a.Kind))
		field(a.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCatalogDigests runs every catalog experiment at its defaults and
// compares the output digest against its pin.
func TestCatalogDigests(t *testing.T) {
	reg := Default()
	if len(catalogDigests) != len(reg.Experiments()) {
		t.Errorf("catalogDigests pins %d experiments, catalog has %d", len(catalogDigests), len(reg.Experiments()))
	}
	for _, e := range reg.Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && catalogDigestSlow[e.Name] {
				t.Skip("slower than 1 s")
			}
			params, _, err := e.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background(), Request{Seed: catalogDigestSeed, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			got := resultDigest(res)
			want, ok := catalogDigests[e.Name]
			if !ok {
				t.Fatalf("no pinned digest (got %s)", got)
			}
			if got != want {
				t.Fatalf("output digest drifted: got %s, want %s", got, want)
			}
		})
	}
}
