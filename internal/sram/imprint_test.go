package sram

import (
	"testing"

	"repro/internal/sim"
)

// imprintAccuracy ages an array holding a pattern, power cycles it, and
// measures how much of the pattern the power-up state reveals.
func imprintAccuracy(t *testing.T, years float64, seed uint64) float64 {
	t.Helper()
	env := sim.NewEnv()
	a := NewArray(env, "aged", 1<<14, seed)
	a.SetRail(0.8)
	a.Fill(0xC3)
	data := a.Snapshot()
	if years > 0 {
		a.Age(years)
	}
	a.SetRail(0)
	env.Advance(500 * sim.Millisecond) // full decay at room temperature
	a.SetRail(0.8)
	after := a.Snapshot()
	match := 0
	for i := range data {
		for k := 0; k < 8; k++ {
			if data[i]>>k&1 == after[i]>>k&1 {
				match++
			}
		}
	}
	return float64(match) / float64(len(data)*8)
}

func TestNoAgingNoImprint(t *testing.T) {
	acc := imprintAccuracy(t, 0, 1)
	if acc < 0.45 || acc > 0.56 {
		t.Fatalf("un-aged recovery = %v, want chance (~0.5)", acc)
	}
}

func TestDecadeAgingRevealsData(t *testing.T) {
	acc := imprintAccuracy(t, 10, 2)
	if acc < 0.70 || acc > 0.92 {
		t.Fatalf("10-year recovery = %v, want ≈0.8 (modest, per §9.2)", acc)
	}
}

func TestAgingMonotone(t *testing.T) {
	prev := 0.0
	for _, years := range []float64{0, 1, 5, 10, 30} {
		acc := imprintAccuracy(t, years, 3)
		if acc < prev-0.03 {
			t.Fatalf("recovery not monotone in age: %v years -> %v (prev %v)", years, acc, prev)
		}
		prev = acc
	}
}

func TestAgeAccumulates(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "aged", 1<<12, 4)
	a.SetRail(0.8)
	a.Fill(0xFF)
	a.Age(4)
	f1 := a.ImprintedFraction()
	a.Age(4)
	f2 := a.ImprintedFraction()
	if !(f2 > f1 && f1 > 0.2 && f2 < 1.0) {
		t.Fatalf("imprint accumulation wrong: %v then %v", f1, f2)
	}
}

func TestAgeZeroIsNoOp(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "aged", 1024, 5)
	a.SetRail(0.8)
	a.Age(0)
	if a.ImprintedFraction() != 0 {
		t.Fatal("Age(0) must not imprint")
	}
}

func TestAgeUnpoweredPanics(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "aged", 1024, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic aging an unpowered array")
		}
	}()
	a.Age(1)
}

// Imprinting biases power-up toward OLD data; it must not affect powered
// retention or Volt Boot-style held-rail retention.
func TestImprintDoesNotAffectHeldRail(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "aged", 1<<12, 7)
	a.SetRail(0.8)
	a.Fill(0xAA)
	a.Age(20)
	a.Fill(0x55) // new data overwrites; imprint still remembers 0xAA
	data := a.Snapshot()
	env.Advance(10 * sim.Second) // held rail
	after := a.Snapshot()
	for i := range data {
		if data[i] != after[i] {
			t.Fatal("held rail retention altered by imprinting")
		}
	}
}
