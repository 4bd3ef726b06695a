package sram

import (
	"math"
	"math/bits"
)

// This file models the data-imprinting ("burn-in") effect behind the
// §9.2 related-work attacks: when a cell holds the same logic value for
// years, bias-temperature instability and hot-carrier injection shift its
// analog balance, and its *power-up* state starts revealing the value it
// held. Those attacks need decade-scale residency for modest recovery
// accuracy — the contrast the paper draws against Volt Boot's instant,
// error-free readout. The reproduction's Ablation D quantifies exactly
// that trade-off.

// The aging calibration, matched to the aging literature's "modest
// recovery after a decade": ≈70 % of cells imprinted after 10 years,
// each revealing with 90 % probability, for ≈0.8 single-shot read
// accuracy at 10 years and chance (0.5) at 0 years.
const (
	// ImprintTauYears is the exponential time constant of imprint onset:
	// after t years of constant data, a cell has become imprinted with
	// probability 1 − exp(−t/ImprintTauYears).
	ImprintTauYears = 8
	// ImprintRevealProb is the probability an imprinted cell powers up
	// into the value it held (rather than its native fingerprint
	// behaviour).
	ImprintRevealProb = 0.90
)

// imprintState is the per-cell aging overlay, lazily allocated: most
// arrays never age.
type imprintState struct {
	// imprinted and value are bitsets over the array's cells.
	imprinted []uint64
	value     []uint64
}

// Age simulates the array holding its *current* contents untouched for
// the given number of years: each not-yet-imprinted cell becomes
// imprinted with the calibrated onset probability, capturing the currently
// stored value. Aging accumulates across calls. The array must be
// powered (cells only age under bias).
func (a *Array) Age(years float64) {
	a.checkAccess("Age", 0, len(a.bits)-1)
	if years <= 0 {
		return
	}
	if a.imprint == nil {
		words := (a.n + 63) / 64
		a.imprint = &imprintState{
			imprinted: make([]uint64, words),
			value:     make([]uint64, words),
		}
	}
	p := 1 - math.Exp(-years/ImprintTauYears)
	st := a.imprint
	for w := range st.imprinted {
		base := w << 6
		count := a.n - base
		if count > 64 {
			count = 64
		}
		full := uint64(1)<<uint(count&63) - 1
		if count == 64 {
			full = ^uint64(0)
		}
		if st.imprinted[w]&full == full {
			// Every cell of this word is already imprinted: the scalar
			// walk would skip each without touching the rng, so the whole
			// word can be skipped at once.
			continue
		}
		imprinted, value, data := st.imprinted[w], st.value[w], a.bits[w]
		for k := 0; k < count; k++ {
			m := uint64(1) << uint(k)
			if imprinted&m != 0 {
				continue
			}
			if a.rng.Bernoulli(p) {
				imprinted |= m
				value |= data & m
			}
		}
		st.imprinted[w], st.value[w] = imprinted, value
	}
	a.env.Logf("sram", "%s: aged %.1f years (imprint onset p=%.2f)", a.name, years, p)
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

// imprintPowerUp returns (value, true) when cell i's power-up is decided
// by its imprint rather than its native bias.
func (a *Array) imprintPowerUp(i int) (bool, bool) {
	st := a.imprint
	if st == nil {
		return false, false
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if st.imprinted[w]&m == 0 {
		return false, false
	}
	if !a.rng.Bernoulli(ImprintRevealProb) {
		return false, false
	}
	return st.value[w]&m != 0, true
}
