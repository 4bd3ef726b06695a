package registry

import (
	"maps"
	"testing"
)

// FuzzResolve drives raw parameter assignments through
// Experiment.Resolve, the canonicalization every campaign submission and
// fabric forward goes through. An experiment index picks the entry and
// two (parameter index, value) pairs build the raw map; an entry with no
// parameters gets the first value as an unknown key. Resolve must never
// panic, and a resolved map must be a fixed point: resolving it again
// returns the identical map and canonical key.
func FuzzResolve(f *testing.F) {
	exps := Default().Experiments()
	for i, e := range exps {
		for j, ps := range e.Params {
			f.Add(uint16(i), uint8(j), ps.Default, uint8(j), ps.Default)
		}
		if len(e.Params) == 0 {
			f.Add(uint16(i), uint8(0), "nope", uint8(0), "")
		}
	}
	byName := map[string]int{}
	for i, e := range exps {
		byName[e.Name] = i
	}
	for _, v := range []string{"NaN", "+Inf", "-Inf", "1,NaN", "-300", "25,-273.15", "-5", "1e300", "0.1,-0.05", " 25.0 , 0 ", "0x2B7E"} {
		f.Add(uint16(byName["ablationB-retention-sweep"]), uint8(0), v, uint8(1), v)
		f.Add(uint16(byName["glitch-search"]), uint8(2), v, uint8(3), v)
		f.Add(uint16(byName["sca-cpa"]), uint8(2), v, uint8(3), v)
	}
	f.Fuzz(func(t *testing.T, idx uint16, p1 uint8, v1 string, p2 uint8, v2 string) {
		e := exps[int(idx)%len(exps)]
		raw := map[string]string{}
		if n := len(e.Params); n > 0 {
			raw[e.Params[int(p1)%n].Name] = v1
			raw[e.Params[int(p2)%n].Name] = v2
		} else {
			raw[v1] = v2
		}
		resolved, key, err := e.Resolve(raw)
		if err != nil {
			return
		}
		again, key2, err := e.Resolve(resolved)
		if err != nil {
			t.Fatalf("%s: resolving the resolved map %v failed: %v", e.Name, resolved, err)
		}
		if !maps.Equal(again, resolved) || key2 != key {
			t.Fatalf("%s: Resolve is not idempotent: %v (key %q) resolved to %v (key %q)", e.Name, resolved, key, again, key2)
		}
	})
}
