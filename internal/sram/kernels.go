package sram

// This file holds the two physics kernels every power event funnels
// through — decay resolution when a rail comes back up, and whole-array
// power-up — in two interchangeable implementations:
//
//   - the *scalar* kernels are the original per-bit reference model:
//     derive each cell's statics with three sequential splitmix64 steps,
//     branch per cell, and read-modify-write one bit at a time;
//   - the *word* kernels process cells in 64-cell batches aligned to the
//     packed storage words. They jump the per-cell splitmix stream
//     directly to the hash they need (xrand.Mix64 of state + k·gamma),
//     skip the hashes a surviving cell never looks at, accumulate a
//     decay mask and a power-up-value word per batch, and merge each
//     batch with three bitwise ops instead of 64 setBit calls.
//
// Both consume the array's rng stream identically (one draw per
// non-imprint-decided decayed cell, in ascending cell order) and derive
// statics from the same hashes, so they are bit-for-bit interchangeable:
// the whole repo's determinism contract rides on that equivalence, and
// kernels_test.go enforces it differentially across seeds, temperatures
// and power paths. The scalar kernels are retained as the executable
// specification; production code always takes the word path.
//
// The word path also defers the most common event, a whole-array mode-2
// resample (a first power-up, or a power cycle that decays every cell):
// pend records the stream position and jumps the rng past the draws,
// and materialize replays them on the first read. Arrays overwritten
// whole before any read (the BCM2711 L2 data RAMs, clobbered by the
// VideoCore at boot) or never read at all (glitch rigs) never pay for
// the draws.

import (
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// cellHashGamma is the stride between the splitmix states of adjacent
// cells (the same golden constant splitmix itself increments by; the
// reuse is historical and now frozen by the determinism contract).
const cellHashGamma = 0x9e3779b97f4a7c15

// resolveDecay decides, for every cell, whether its state survived the
// excursion during which the rail sat at heldVolts (possibly 0). A cell
// survives if either the held voltage was at or above its personal DRV,
// or the unpowered interval was shorter than its personal retention time
// at the excursion temperature.
//
//voltvet:hotpath
func (a *Array) resolveDecay() {
	if a.scalarKernels {
		a.resolveDecayScalar()
	} else {
		a.resolveDecayWords()
	}
}

// powerUpAll samples a fresh power-up fingerprint for every cell.
//
//voltvet:hotpath
func (a *Array) powerUpAll() {
	if a.scalarKernels {
		a.powerUpAllScalar()
	} else {
		a.powerUpAllWords()
	}
}

// logDecayThreshold returns the survival threshold in log-retention
// space: a cell survives on time iff elapsed < median·exp(logRet), i.e.
// logRet > ln(elapsed/median). One Log call serves the whole array.
//
//voltvet:hotpath
func (a *Array) logDecayThreshold(elapsed float64) float64 {
	if elapsed <= 0 {
		return math.Inf(-1) // everything survives a zero gap
	}
	median := float64(a.model.MedianRetentionAt(a.decayTempK))
	return math.Log(elapsed / median)
}

// ---------------------------------------------------------------------------
// Word-vectorized kernels (the production path).

// fieldSum16 returns the sum of the four 16-bit fields of h — the integer
// ihNormal's value is an exact function of: every partial sum in ihNormal
// is an integer below 2⁵³, so float64(fieldSum16(h)) reproduces ihNormal's
// internal sum bit-exactly.
//
//voltvet:hotpath
func fieldSum16(h uint64) int {
	return int(h&0xFFFF) + int(h>>16&0xFFFF) + int(h>>32&0xFFFF) + int(h>>48)
}

// maxFieldSum is the largest possible fieldSum16 value (4·65535).
const maxFieldSum = 262140

// maxSumWhere returns the largest s in [0, maxFieldSum] satisfying pred,
// or −1 when none does. pred must be downward closed (true on a prefix).
//
//voltvet:hotpath
func maxSumWhere(pred func(int) bool) int {
	if !pred(0) {
		return -1
	}
	lo, hi := 0, maxFieldSum
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if pred(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// minIntWhere returns the smallest m in [0, hi] satisfying pred, or
// hi+1 when none does. pred must be upward closed.
//
//voltvet:hotpath
func minIntWhere(hi int, pred func(int) bool) int {
	if !pred(hi) {
		return hi + 1
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// minSumWhere is minIntWhere over the field-sum domain.
//
//voltvet:hotpath
func minSumWhere(pred func(int) bool) int { return minIntWhere(maxFieldSum, pred) }

// biasedThreshold precomputes the integer gate equivalent to the scalar
// "is this cell biased" test float64(h3&0xFFFFFF)/2²⁴ ≥ NeutralFraction:
// the division by 2²⁴ is exact for every 24-bit value, so the predicate
// is monotone in the field and the binary search (evaluating the exact
// scalar expression) yields a bit-identical integer compare.
//
//voltvet:hotpath
func biasedThreshold(neutral float64) int {
	return minIntWhere(1<<24-1, func(m int) bool {
		return float64(m)/float64(1<<24) >= neutral
	})
}

// biasSampler draws the native (non-imprinted) power-up value of cells
// from their third hash, with every per-call constant — the biased-cell
// gate and the BiasNoise regime — resolved once instead of per cell. It
// consumes the rng stream exactly like the scalar powerUpCellWith: one
// Uint64 per cell, except for degenerate BiasNoise values where
// Bernoulli short-circuits without drawing.
type biasSampler struct {
	rng       *xrand.Rand
	biasedMin int
	// mode 0: noise ≤ 0, Bernoulli is false without a draw;
	// mode 1: noise ≥ 1, Bernoulli is true without a draw;
	// mode 2: draw and compare against thr.
	mode uint8
	// thr is BiasNoise·2⁵³. Float64() < p compares x/2⁵³ < p where x is
	// the exact 53-bit draw; both the division and this multiplication
	// are exact power-of-two scalings, so "float64(x) < thr" decides the
	// identical predicate without the per-cell divide.
	thr float64
	// thrInt is ⌈thr⌉: because the 53-bit draw x converts to float64
	// exactly, float64(x) < thr ⟺ x < ⌈thr⌉ as integers (when thr is
	// itself an integer the ceiling is thr and both forms agree), so the
	// hot kernels decide the Bernoulli with one integer compare and no
	// int→float conversion per biased cell.
	thrInt uint64
}

//voltvet:hotpath
func (a *Array) newBiasSampler() biasSampler {
	s := biasSampler{rng: a.rng, biasedMin: biasedThreshold(a.model.NeutralFraction)}
	noise := a.model.BiasNoise
	switch {
	case noise <= 0:
		s.mode = 0
	case noise >= 1:
		s.mode = 1
	default:
		s.mode = 2
		s.thr = noise * (1 << 53)
		s.thrInt = uint64(math.Ceil(s.thr))
	}
	return s
}

// sample returns the power-up value of a cell whose third hash is h3.
//
// The hot kernels do not call this: they load the sampler's fields into
// locals and evaluate the same expressions inline (see sampleInline),
// which lets the compiler inline the xoshiro state update into the cell
// loop. This method remains the readable form and the one differential
// tests exercise directly.
func (s *biasSampler) sample(h3 uint64) bool {
	if int(h3&0xFFFFFF) >= s.biasedMin { // biased cell
		v := h3>>63 == 1
		if s.mode == 2 {
			if s.rng.Uint64()>>11 < s.thrInt { // Bernoulli(BiasNoise)
				v = !v
			}
		} else if s.mode == 1 {
			v = !v
		}
		return v
	}
	return s.rng.Uint64()&1 == 1 // inlined Bool
}

// mode2PhaseA computes, for one full 64-cell batch, the biased-cell mask
// and the preferred-value bits — pure hashing of each cell's third hash,
// with no cross-iteration dependency and no rng draws. The result is a
// function of only (cellState, ig, biasedMin), all fixed for an array's
// lifetime.
//
//voltvet:hotpath
func mode2PhaseA(cellState, ig uint64, biasedMin int) (biasedMask, prefBits uint64) {
	igk := ig
	for k := uint(0); k < 64; k++ {
		h3 := xrand.Mix64((cellState ^ igk) + cellHashGamma + cellHashGamma + cellHashGamma)
		igk += cellHashGamma
		var b uint64
		if int(h3&0xFFFFFF) >= biasedMin {
			b = 1
		}
		biasedMask |= b << k
		prefBits |= (h3 >> 63) << k
	}
	return biasedMask, prefBits
}

// mode2Batch64 computes the packed power-up word for one full 64-cell
// batch in the mode-2 sampling regime (0 < BiasNoise < 1, no imprint
// overlay), given the batch's phase-A masks: it walks the rng stream —
// in mode 2 every cell consumes exactly one Uint64 (biased cells for the
// Bernoulli flip, neutral cells for the coin), so the draw loop is
// unconditional and carries nothing but the xoshiro state recurrence —
// and merges per bit: biased cells take preference XOR flip, neutral
// cells take the coin. Draw order is ascending cell order, one draw per
// cell — exactly the stream the scalar reference consumes — and every
// per-cell predicate is the same integer compare the generic kernels
// use, so the result is bit-identical.
//
//voltvet:hotpath
func mode2Batch64(rng *xrand.Rand, biasedMask, prefBits, thrInt uint64) uint64 {
	var flipMask, coinMask uint64
	for k := uint(0); k < 64; k++ {
		d := rng.Uint64()
		var f uint64
		if d>>11 < thrInt {
			f = 1
		}
		flipMask |= f << k
		coinMask |= (d & 1) << k
	}
	return (biasedMask & (prefBits ^ flipMask)) | (^biasedMask & coinMask)
}

// pend defers a whole-array mode-2 resample: it records the rng stream
// position the resample's draws start at and jumps the rng past them —
// one Uint64 per cell, exactly what mode2Batch64 consumes — so every
// later draw lands where the eager kernel would have left the stream.
// The bits stay stale until materialize replays the draws. Callers
// guarantee the mode-2 batch conditions (mode 2, no imprint overlay, no
// partial tail word) and mark the snapshot pages.
//
//voltvet:hotpath
func (a *Array) pend() {
	a.pending = true
	a.pendFrom = a.rng.State()
	a.rng.Jump(uint64(a.n))
}

// materialize draws a pending resample: it replays the recorded stream
// position into a stack generator and assembles every word through the
// two-phase batch kernel — same hashes, same draws, same order as the
// scalar reference, so the bits are identical. The array's own rng is
// not touched; pend already moved it.
//
// When the armed owner snapshot holds this same pending resample, the
// result is written through into it: the snapshot's logical content is
// unchanged, and a sweep that restores it per trial materializes once
// instead of once per trial. Otherwise every page is marked dirty, since
// the snapshot's copy of the words is not what the array now holds.
//
//voltvet:hotpath
func (a *Array) materialize() {
	sampler := a.newBiasSampler()
	var rng xrand.Rand
	rng.SetState(a.pendFrom)
	gamma := uint64(cellHashGamma)
	batchStep := gamma * 64 // wraps mod 2⁶⁴ like 64 incremental adds
	ig := uint64(0)
	for w := range a.bits {
		biased, pref := mode2PhaseA(a.cellSeed, ig, sampler.biasedMin)
		ig += batchStep
		a.bits[w] = mode2Batch64(&rng, biased, pref, sampler.thrInt)
	}
	a.pending = false
	if s := a.snapOwner; a.snapDirty != nil && s != nil && s.pending && s.pendFrom == a.pendFrom {
		copy(s.bits, a.bits)
		s.pending = false
		return
	}
	a.markSnapAll()
}

// resolveDecayWords is the word-batched decay kernel. Per 64-cell batch
// it builds a mask of decayed cells and the value word they power up
// into, then merges both into the packed storage with bitwise ops.
//
// The per-cell DRV and retention gates are precomputed once per
// excursion as integer thresholds on the hash field sums: both scalar
// predicates are monotone in the field sum (for non-negative sigmas), so
// a binary search evaluating the *exact scalar float expression* finds
// the crossover sum, and the hot loop then needs only two hashes and two
// integer compares per surviving cell — zero float work. When a model
// carries a negative sigma (monotonicity flips) the kernel falls back to
// evaluating the float gates per cell, still bit-identically.
//
//voltvet:hotpath
func (a *Array) resolveDecayWords() {
	elapsed := float64(a.env.Now() - a.belowSince)
	if elapsed <= 0 {
		// The scalar reference computes statics for every cell but decays
		// none of them and consumes no rng draws — equivalent to a no-op.
		return
	}
	logThreshold := a.logDecayThreshold(elapsed)
	var (
		held      = a.heldVolts
		nomDRV    = a.model.NominalDRV
		drvSigma  = a.model.DRVSigma
		retSigma  = a.model.RetentionSigma
		sampler   = a.newBiasSampler()
		hasAging  = a.imprint != nil
		cellState = a.cellSeed // xor-folded per cell below
		// sampler fields hoisted into locals so the per-decayed-cell draw
		// below compiles to straight-line code with the xoshiro update
		// inlined (see biasSampler.sample, the readable reference form).
		rng       = sampler.rng
		biasedMin = sampler.biasedMin
		mode      = sampler.mode
		thrInt    = sampler.thrInt
	)
	// Integer survival gates (see the function comment).
	intGates := drvSigma >= 0 && retSigma >= 0
	drvSumMax, retSumMin := -1, maxFieldSum+1
	if intGates {
		drvSumMax = maxSumWhere(func(sum int) bool { //voltvet:ignore VV-HOT003 non-escaping predicate closure: the search helper only invokes it, so it stays on the stack
			// Exactly the scalar DRV expression, evaluated at this sum.
			drv := nomDRV + drvSigma*((float64(sum)-131070.0)/37837.2)
			if drv < 0.05 {
				drv = 0.05
			}
			return held >= drv
		})
		retSumMin = minSumWhere(func(sum int) bool { //voltvet:ignore VV-HOT003 non-escaping predicate closure: the search helper only invokes it, so it stays on the stack
			return retSigma*((float64(sum)-131070.0)/37837.2) > logThreshold
		})
		if drvSumMax >= maxFieldSum || retSumMin <= 0 {
			// Every possible cell survives: the excursion is a no-op (the
			// scalar reference would scan all cells, decay none, and
			// consume no rng draws).
			return
		}
	}
	// Degenerate gates: when the crossover sits outside the reachable sum
	// range, the corresponding predicate is constant and its survival hash
	// is never worth computing. checkDRV is false for a rail held at (or
	// driven to) 0 V — no cell's DRV reaches that low — and checkRet is
	// false when the outage outlives even the stickiest cell, which is
	// precisely the Volt Boot power cycle: room-temperature SRAM retention
	// is milliseconds against a half-second outage. In that common case the
	// whole per-cell survival test collapses to "decays", skipping both
	// Mix64 hashes. The hashes are pure functions (they consume no rng
	// draws), so skipping them cannot shift any stream.
	checkDRV := !intGates || drvSumMax >= 0
	checkRet := !intGates || retSumMin <= maxFieldSum
	lost := 0
	ig := uint64(0) // i·gamma, maintained incrementally
	if intGates && !checkDRV && !checkRet && mode == 2 && !hasAging && a.n&63 == 0 {
		// Full-decay fast path: both survival gates are degenerate — the
		// Volt Boot power cycle itself (rail at 0 V, outage far beyond any
		// cell's retention) — so every cell decays and no survival hash is
		// ever consulted. The result is a whole-array mode-2 resample that
		// ignores the old contents, so it is deferred (pend) exactly like a
		// first power-up; a pending resample it replaces was never read.
		a.pend()
		a.env.Logf("sram", "%s: %d/%d cells decayed over %s at %.2fV held",
			a.name, a.n, a.n, sim.Time(elapsed), a.heldVolts) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
		return
	}
	if a.pending {
		// A partial decay reads the surviving cells: draw the pending
		// resample first.
		a.materialize()
	}
	for w := range a.bits {
		base := w << 6
		count := a.n - base
		if count > 64 {
			count = 64
		}
		var decayMask, newBits uint64
		for k := 0; k < count; k++ {
			st := cellState ^ ig
			ig += cellHashGamma
			if intGates {
				// Hash 1 → DRV gate; hash 2 → retention gate. Integer
				// compares against the precomputed crossover sums.
				if checkDRV && fieldSum16(xrand.Mix64(st+cellHashGamma)) <= drvSumMax {
					continue // rail held above this cell's DRV: perfect retention
				}
				if checkRet && fieldSum16(xrand.Mix64(st+cellHashGamma+cellHashGamma)) >= retSumMin {
					continue // charge survived the gap
				}
			} else {
				// Fallback: same float expressions as the scalar reference.
				drv := nomDRV + drvSigma*ihNormal(xrand.Mix64(st+cellHashGamma))
				if drv < 0.05 {
					drv = 0.05
				}
				if held >= drv {
					continue
				}
				if retSigma*ihNormal(xrand.Mix64(st+cellHashGamma+cellHashGamma)) > logThreshold {
					continue
				}
			}
			// Cell decays: sample its power-up value. Imprint overlay
			// first (it may consume a reveal draw), then native bias from
			// hash 3 — computed only for cells that actually decay.
			bit := uint64(1) << uint(k)
			decayMask |= bit
			var v, decided bool
			if hasAging {
				v, decided = a.imprintPowerUp(base + k)
			}
			if !decided {
				// sampleInline: biasSampler.sample with the mode dispatch on
				// hoisted locals — identical draws in identical order.
				h3 := xrand.Mix64(st + cellHashGamma + cellHashGamma + cellHashGamma)
				if int(h3&0xFFFFFF) >= biasedMin {
					v = h3>>63 == 1
					if mode == 2 {
						if rng.Uint64()>>11 < thrInt {
							v = !v
						}
					} else if mode == 1 {
						v = !v
					}
				} else {
					v = rng.Uint64()&1 == 1
				}
			}
			if v {
				newBits |= bit
			}
		}
		if decayMask != 0 {
			a.bits[w] = (a.bits[w] &^ decayMask) | newBits
			lost += bits.OnesCount64(decayMask)
		}
	}
	if lost > 0 {
		a.env.Logf("sram", "%s: %d/%d cells decayed over %s at %.2fV held",
			a.name, lost, a.n, sim.Time(elapsed), a.heldVolts) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
	}
}

// powerUpAllWords is the word-batched fingerprint kernel. Every cell
// powers up, so no survival hashes are needed at all: the kernel jumps
// straight to each cell's third hash (bias/preference) and assembles
// whole storage words.
//
//voltvet:hotpath
func (a *Array) powerUpAllWords() {
	var (
		sampler   = a.newBiasSampler()
		hasAging  = a.imprint != nil
		cellState = a.cellSeed
		// Hoisted sampler fields; see resolveDecayWords.
		rng       = sampler.rng
		biasedMin = sampler.biasedMin
		mode      = sampler.mode
		thrInt    = sampler.thrInt
	)
	ig := uint64(0)
	if mode == 2 && !hasAging && a.n&63 == 0 {
		// The dominant regime (every stock retention model sets a
		// fractional BiasNoise, and fingerprint power-ups have no imprint
		// overlay): defer the whole-word resample until something reads
		// the array (pend).
		a.pend()
		a.env.Logf("sram", "%s: power-up into fingerprint state (%d bits)", a.name, a.n) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
		return
	}
	for w := range a.bits {
		base := w << 6
		count := a.n - base
		if count > 64 {
			count = 64
		}
		var newBits uint64
		for k := 0; k < count; k++ {
			st := cellState ^ ig
			ig += cellHashGamma
			var v, decided bool
			if hasAging {
				v, decided = a.imprintPowerUp(base + k)
			}
			if !decided {
				// sampleInline: biasSampler.sample on hoisted locals.
				h3 := xrand.Mix64(st + cellHashGamma + cellHashGamma + cellHashGamma)
				if int(h3&0xFFFFFF) >= biasedMin {
					v = h3>>63 == 1
					if mode == 2 {
						if rng.Uint64()>>11 < thrInt {
							v = !v
						}
					} else if mode == 1 {
						v = !v
					}
				} else {
					v = rng.Uint64()&1 == 1
				}
			}
			if v {
				newBits |= uint64(1) << uint(k)
			}
		}
		if count == 64 {
			a.bits[w] = newBits
		} else {
			mask := uint64(1)<<uint(count) - 1
			a.bits[w] = (a.bits[w] &^ mask) | newBits
		}
	}
	a.env.Logf("sram", "%s: power-up into fingerprint state (%d bits)", a.name, a.n) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the executable specification).

// resolveDecayScalar is the original per-bit decay kernel, kept as the
// reference the word kernels are differentially tested against.
//
//voltvet:hotpath
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
			a.name, lost, a.n, sim.Time(elapsed), a.heldVolts) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
	}
}

// powerUpAllScalar is the original per-bit fingerprint kernel.
//
//voltvet:hotpath
func (a *Array) powerUpAllScalar() {
	for i := 0; i < a.n; i++ {
		_, _, biased, preferred := a.cellStatics(i)
		a.powerUpCellWith(i, biased, preferred)
	}
	a.env.Logf("sram", "%s: power-up into fingerprint state (%d bits)", a.name, a.n) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
}

// powerUpCellWith samples the power-up value for cell i from its bias,
// unless long-term imprinting (see imprint.go) decides it first.
//
//voltvet:hotpath
func (a *Array) powerUpCellWith(i int, biased, preferred bool) {
	if v, decided := a.imprintPowerUp(i); decided {
		a.setBit(i, v)
		return
	}
	var v bool
	if biased {
		v = preferred
		if a.rng.Bernoulli(a.model.BiasNoise) {
			v = !v
		}
	} else {
		v = a.rng.Bool()
	}
	a.setBit(i, v)
}
