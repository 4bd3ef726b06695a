// Puf: the security applications of SRAM power-up state — and how Volt
// Boot-grade physical access undermines them.
//
// §5.2.4 explains why vendors leave SRAM un-reset at boot: the power-up
// state is useful. It fingerprints the chip (an SRAM PUF), seeds true
// random number generators, and the per-cell data retention voltage is a
// second fingerprint (the paper's reference [20]). This example runs all
// three on the simulated silicon, then shows the flip side: an attacker
// who can probe the rail reads the "unclonable" fingerprint out like any
// other SRAM content.
//
// Run with: go run ./examples/puf
package main

import (
	"fmt"
	"log"

	"repro/internal/puf"
	"repro/internal/sim"
	"repro/internal/sram"
)

func makeHarness(seed uint64) (*puf.Harness, *sram.Array) {
	env := sim.NewEnv()
	arr := sram.NewArray(env, "puf-block", 1<<14, seed)
	arr.SetRail(0.8)
	return puf.NewHarness(env, arr, 0.8, 100*sim.Millisecond), arr
}

func main() {
	deviceA, _ := makeHarness(1001)
	deviceB, _ := makeHarness(2002)

	// --- PUF enrollment and authentication ---
	enrollment, err := puf.Enroll(deviceA, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolled device A: %.0f%% of cells stable across 5 power-ups\n",
		enrollment.StableFraction()*100)

	hd, ok, err := enrollment.Authenticate(deviceA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device A re-authenticates: masked HD %.3f -> accept=%v\n", hd, ok)

	hd, ok, err = enrollment.Authenticate(deviceB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device B against A's enrollment: masked HD %.3f -> accept=%v\n\n", hd, ok)

	// --- TRNG from metastable cells ---
	random, err := puf.TRNG(deviceA, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TRNG from power-up noise: %x\n\n", random)

	// --- DRV fingerprinting (reference [20]) ---
	steps := []float64{0.42, 0.38, 0.34, 0.30, 0.26, 0.22, 0.18}
	fpA, err := puf.MeasureDRV(deviceA, steps, 10*sim.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fpA2, err := puf.MeasureDRV(deviceA, steps, 10*sim.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fpB, err := puf.MeasureDRV(deviceB, steps, 10*sim.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	dSame, _ := fpA.Distance(fpA2)
	dDiff, _ := fpA.Distance(fpB)
	fmt.Printf("DRV fingerprint distance, same chip remeasured: %.3f steps\n", dSame)
	fmt.Printf("DRV fingerprint distance, different chips:      %.3f steps\n\n", dDiff)

	// --- the dark side ---
	// An attacker with rail access simply reads a power-up image; it
	// authenticates as the device. The "unclonable" function identifies
	// whoever holds the dump.
	stolen := deviceA.PowerUpRead()
	hd, ok, err = enrollment.AuthenticateImage(stolen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stolen power-up image vs A's enrollment: masked HD %.3f -> accept=%v\n", hd, ok)
	fmt.Println("=> physical rail access clones the PUF: the same capability Volt Boot needs")
}
