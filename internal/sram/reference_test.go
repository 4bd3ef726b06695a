package sram

import (
	"math/bits"

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
	for i := 0; i < a.n; i++ {
		drv, logRet, biased, preferred := a.cellStatics(i)
		if a.heldVolts >= drv {
			continue // rail held above this cell's DRV: perfect retention
		}
		if logRet > logThreshold {
			continue // charge survived the gap
		}
		a.powerUpCellWith(i, biased, preferred)
	}
}

// powerUpAllScalar is the per-bit fingerprint kernel.
func (a *Array) powerUpAllScalar() {
	for i := 0; i < a.n; i++ {
		_, _, biased, preferred := a.cellStatics(i)
		a.powerUpCellWith(i, biased, preferred)
	}
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

// The single-bit and whole-array accessors below serve the tests only:
// the machine reads and writes SRAM in bytes and words.

func (a *Array) setBit(i int, v bool) {
	if v {
		a.bits[i>>6] |= 1 << (uint(i) & 63)
	} else {
		a.bits[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func (a *Array) bit(i int) bool {
	return a.bits[i>>6]>>(uint(i)&63)&1 == 1
}

// WriteBit stores one bit. Accessing an unpowered array is a programming
// error (real hardware cannot either) and panics.
func (a *Array) WriteBit(i int, v bool) {
	a.checkAccess("WriteBit", i>>6, i>>6)
	a.gen++
	a.markSnapPages(i>>6, i>>6)
	a.setBit(i, v)
}

// ReadBit loads one bit.
func (a *Array) ReadBit(i int) bool {
	a.checkAccess("ReadBit", i>>6, i>>6)
	return a.bit(i)
}

// FractionOnes returns the fraction of 1 bits currently stored, counted
// with a population-count per packed word (the trailing partial word, if
// any, is masked to the live n bits).
func (a *Array) FractionOnes() float64 {
	a.checkAccess("FractionOnes", 0, len(a.bits)-1)
	ones := 0
	full := a.n >> 6
	for w := 0; w < full; w++ {
		ones += bits.OnesCount64(a.bits[w])
	}
	if rem := uint(a.n) & 63; rem != 0 {
		ones += bits.OnesCount64(a.bits[full] & (uint64(1)<<rem - 1))
	}
	return float64(ones) / float64(a.n)
}

// ImprintedFraction reports the fraction of cells currently imprinted,
// population-counted per packed word.
func (a *Array) ImprintedFraction() float64 {
	if a.imprint == nil {
		return 0
	}
	n := 0
	full := a.n >> 6
	for w := 0; w < full; w++ {
		n += bits.OnesCount64(a.imprint.imprinted[w])
	}
	if rem := uint(a.n) & 63; rem != 0 {
		n += bits.OnesCount64(a.imprint.imprinted[full] & (uint64(1)<<rem - 1))
	}
	return float64(n) / float64(a.n)
}
