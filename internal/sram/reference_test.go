package sram

import (
	"repro/internal/sim"
	"repro/internal/xrand"
)

// The per-bit reference model: the executable specification the word
// kernels in kernels.go are differentially tested against. It derives
// each cell's statics with three sequential splitmix64 steps, branches
// per cell, and read-modify-writes one bit at a time. refSetRail drives
// an array through it.

// refSetRail is SetRail with the reference kernels in place of the word
// kernels: the same rail state machine, with every power-up and decay
// drawn eagerly, cell by cell.
func refSetRail(a *Array, volts float64) {
	if volts == a.railVolts && (a.everPowered || volts == 0) {
		return
	}
	prev := a.railVolts
	a.railVolts = volts
	wasUp := prev >= RetentionThreshold
	isUp := volts >= RetentionThreshold

	switch {
	case !a.everPowered && isUp:
		a.gen++
		a.markSnapAll()
		a.powerUpAllScalar()
		a.everPowered = true
		a.decaying = false
	case wasUp && !isUp:
		a.decaying = true
		a.belowSince = a.env.Now()
		a.decayTempK = a.env.TemperatureK()
		a.heldVolts = volts
	case !wasUp && !isUp:
		if a.decaying && volts < a.heldVolts {
			a.heldVolts = volts
		}
	case !wasUp && isUp && a.decaying:
		a.gen++
		a.markSnapAll()
		a.resolveDecayScalar()
		a.decaying = false
	}
}

// ihNormal converts a 64-bit hash into an approximately standard normal
// variate via the Irwin–Hall sum of its four 16-bit fields.
func ihNormal(h uint64) float64 {
	sum := float64(h&0xFFFF) + float64(h>>16&0xFFFF) + float64(h>>32&0xFFFF) + float64(h>>48)
	// mean 2·65535, stddev √(4·(65536²−1)/12) ≈ 37837.2
	return (sum - 131070.0) / 37837.2
}

// cellStatics derives cell i's silicon-lottery properties from its hash.
func (a *Array) cellStatics(i int) (drv, logRetention float64, biased, preferred bool) {
	st := a.cellSeed ^ uint64(i)*0x9e3779b97f4a7c15
	h1 := xrand.SplitMix64(&st)
	h2 := xrand.SplitMix64(&st)
	drv = NominalDRV + DRVSigma*ihNormal(h1)
	if drv < 0.05 {
		drv = 0.05
	}
	logRetention = RetentionSigma * ihNormal(h2)
	// Use untouched high-entropy bits of a third output for the discrete
	// properties so they are independent of the normals above.
	h3 := xrand.SplitMix64(&st)
	biased = float64(h3&0xFFFFFF)/float64(1<<24) >= NeutralFraction
	preferred = h3>>63 == 1
	return drv, logRetention, biased, preferred
}

// resolveDecayScalar is the per-bit decay kernel.
func (a *Array) resolveDecayScalar() {
	elapsed := float64(a.env.Now() - a.belowSince)
	logThreshold := a.logDecayThreshold(elapsed)
	lost := 0
	for i := 0; i < a.n; i++ {
		drv, logRet, biased, preferred := a.cellStatics(i)
		if a.heldVolts >= drv {
			continue // rail held above this cell's DRV: perfect retention
		}
		if logRet > logThreshold {
			continue // charge survived the gap
		}
		a.powerUpCellWith(i, biased, preferred)
		lost++
	}
	if lost > 0 {
		a.env.Logf("sram", "%s: %d/%d cells decayed over %s at %.2fV held",
			a.name, lost, a.n, sim.Time(elapsed), a.heldVolts)
	}
}

// powerUpAllScalar is the per-bit fingerprint kernel.
func (a *Array) powerUpAllScalar() {
	for i := 0; i < a.n; i++ {
		_, _, biased, preferred := a.cellStatics(i)
		a.powerUpCellWith(i, biased, preferred)
	}
	a.env.Logf("sram", "%s: power-up into fingerprint state (%d bits)", a.name, a.n)
}

// powerUpCellWith samples the power-up value for cell i from its bias,
// unless long-term imprinting (see imprint.go) decides it first.
func (a *Array) powerUpCellWith(i int, biased, preferred bool) {
	if v, decided := a.imprintPowerUp(i); decided {
		a.setBit(i, v)
		return
	}
	var v bool
	if biased {
		v = preferred
		if a.rng.Bernoulli(BiasNoise) {
			v = !v
		}
	} else {
		v = a.rng.Bool()
	}
	a.setBit(i, v)
}
