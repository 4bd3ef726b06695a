package sram

// This file holds the two physics kernels every power event funnels
// through — decay resolution when a rail comes back up, and whole-array
// power-up. Both process cells in 64-cell batches aligned to the packed
// storage words: they jump the per-cell splitmix stream directly to the
// hash they need (xrand.Mix64 of state + k·gamma), skip the hashes a
// surviving cell never looks at, accumulate a decay mask and a
// power-up-value word per batch, and merge each batch with three bitwise
// ops instead of 64 single-bit stores.
//
// The kernels are bit-for-bit equal to the per-bit reference model that
// reference_test.go keeps as the executable specification (derive each
// cell's statics with three sequential splitmix64 steps, branch per
// cell, and read-modify-write one bit at a time): they consume the
// array's rng stream identically — one draw per non-imprint-decided
// decayed cell, in ascending cell order — and derive statics from the
// same hashes. The whole repo's determinism contract rides on that
// equivalence, and kernels_test.go enforces it differentially across
// seeds, temperatures and power paths.
//
// The kernels also defer the most common event, a whole-array resample
// (a first power-up, or a power cycle that decays every cell): pend
// records the stream position, marks every snapshot page pending and
// jumps the rng past the draws. A page is drawn when an access first
// covers it: page p's draws start 4096·p Uint64s after the recorded
// position (one per cell), so one jump reaches any page and a run of
// pending pages is drawn in one pass. Arrays of at most two pages (the
// register files) draw whole on first access, keeping the page test off
// their step path. Arrays overwritten whole before any read (the BCM2711
// L2 data RAMs, clobbered by the VideoCore at boot) or never read at all
// (glitch rigs) never pay for the draws, and a fault-campaign rig draws
// only the tag and data pages its trials touch.

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

// logDecayThreshold returns the survival threshold in log-retention
// space: a cell survives on time iff elapsed < median·exp(logRet), i.e.
// logRet > ln(elapsed/median). One Log call serves the whole array.
func (a *Array) logDecayThreshold(elapsed float64) float64 {
	if elapsed <= 0 {
		return math.Inf(-1) // everything survives a zero gap
	}
	median := float64(MedianRetentionAt(a.decayTempK))
	return math.Log(elapsed / median)
}

// fieldSum16 returns the sum of the four 16-bit fields of h — the integer
// the reference model's Irwin–Hall normal is an exact function of: every
// partial sum of that normal is an integer below 2⁵³, so
// float64(fieldSum16(h)) reproduces its internal sum bit-exactly.
func fieldSum16(h uint64) int {
	return int(h&0xFFFF) + int(h>>16&0xFFFF) + int(h>>32&0xFFFF) + int(h>>48)
}

// maxFieldSum is the largest possible fieldSum16 value (4·65535).
const maxFieldSum = 262140

// maxSumWhere returns the largest s in [0, maxFieldSum] satisfying pred,
// or −1 when none does. pred must be downward closed (true on a prefix).
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
func minSumWhere(pred func(int) bool) int { return minIntWhere(maxFieldSum, pred) }

// The power-up sampling gates, the calibration's two fractions as the
// integer thresholds the kernels compare against
// (TestDerivedConstantsMatchCalibration checks both):
//
//   - a cell is biased when the 24-bit field m of its third hash meets
//     m/2²⁴ ≥ NeutralFraction; the division is exact for every 24-bit m,
//     so that is m ≥ biasedMin = ⌈NeutralFraction·2²⁴⌉;
//   - a biased cell powers up against its preference when its draw's top
//     53 bits x meet x/2⁵³ < BiasNoise (Rand.Bernoulli); the scaling is
//     exact and x converts to float64 exactly, so that is
//     x < biasFlipBelow = ⌈BiasNoise·2⁵³⌉.
//
// Every cell consumes exactly one Uint64: a biased cell for the flip, a
// neutral cell for its coin (bit 0).
const (
	biasedMin     = 3355444
	biasFlipBelow = 180143985094820
)

// mode2PhaseA computes, for one full 64-cell batch, the biased-cell mask
// and the preferred-value bits — pure hashing of each cell's third hash,
// with no cross-iteration dependency and no rng draws. The result is a
// function of only (cellState, ig), both fixed for an array's lifetime.
func mode2PhaseA(cellState, ig uint64) (biasedMask, prefBits uint64) {
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
// batch with no imprinted cell, given the batch's phase-A masks: it
// walks the rng stream — every cell consumes exactly one Uint64, so the
// draw loop is unconditional and carries nothing but the xoshiro state
// recurrence — and merges per bit: biased cells take preference XOR
// flip, neutral cells take the coin. Draw order is ascending cell order,
// one draw per cell — exactly the stream the reference model consumes —
// and every per-cell predicate is the same integer compare the cell
// loops use, so the result is bit-identical.
func mode2Batch64(rng *xrand.Rand, biasedMask, prefBits uint64) uint64 {
	var flipMask, coinMask uint64
	for k := uint(0); k < 64; k++ {
		d := rng.Uint64()
		var f uint64
		if d>>11 < biasFlipBelow {
			f = 1
		}
		flipMask |= f << k
		coinMask |= (d & 1) << k
	}
	return (biasedMask & (prefBits ^ flipMask)) | (^biasedMask & coinMask)
}

// wholeDrawPages is the largest array, in snapshot pages, that draws a
// pending resample whole on first access. A register file is 96 words
// (1.5 pages) and most runs never touch its upper page, but leaving it
// pending would put a page test on every register access.
const wholeDrawPages = 2

// pageJumps[p] advances a generator over p pages' draws (4096·p) in one
// polynomial application, so a reader walking a pending array page by
// page, such as a RAMINDEX dump, pays one per page instead of one per set
// bit of p. 256 pages covers an SoC's largest array, the L2 tag RAM;
// pages past it take xrand.Jump.
var pageJumps = xrand.JumpTable(snapPageWords*64, 256)

// pend defers a whole-array resample: it records the rng stream position
// the resample's draws start at, marks every page pending and jumps the
// rng past the draws — one Uint64 per cell, exactly what mode2Batch64
// consumes — so every later draw lands where the eager kernel would have
// left the stream. A recorded invalidate belongs to the resample it
// replaces and is dropped. The bits stay stale until materialize draws
// them. Callers guarantee the batch conditions (no imprinted cell, no
// partial tail word) and mark the snapshot pages.
func (a *Array) pend() {
	a.pending = true
	a.pendFrom = a.rng.State()
	a.pendInval = invalMasks{}
	setPageBits(a.pendPages, a.pages())
	a.rng.Jump(uint64(a.n))
}

// pagePending reports whether page p of a pending resample is undrawn.
func (a *Array) pagePending(p int) bool {
	return a.pendPages[p>>6]>>(uint(p)&63)&1 == 1
}

// materialize draws the pending pages covering packed words [w0, w1],
// clamped to the array, or every pending page of an array of at most
// wholeDrawPages pages. Each run of consecutive pending pages is drawn
// in one pass; a whole-array reader therefore walks the stream once.
// The resample stops pending with its last page.
func (a *Array) materialize(w0, w1 int) {
	np := a.pages()
	p0, p1 := max(w0, 0)>>snapPageShift, min(w1>>snapPageShift, np-1)
	if np <= wholeDrawPages {
		p0, p1 = 0, np-1
	}
	drew := false
	for p := p0; p <= p1; p++ {
		if !a.pagePending(p) {
			continue
		}
		q := p
		for q < p1 && a.pagePending(q+1) {
			q++
		}
		a.drawPages(p, q)
		p, drew = q, true
	}
	if drew && !anySet(a.pendPages) {
		a.pending = false
		a.pendInval = invalMasks{}
	}
}

// drawPages draws pending pages [p, q]: it replays the recorded stream
// position into a stack generator, jumps it to page p's first draw and
// assembles every word through the two-phase batch kernel — same hashes,
// same draws, same order as the reference model, so the bits are
// identical — then applies the recorded invalidate. The array's own rng
// is not touched; pend already moved it.
//
// When the armed owner snapshot pends this same resample with the same
// recorded invalidate, each drawn page it still pends is written through
// into it: the snapshot's logical content is unchanged, and a sweep that
// restores it per trial draws each page once instead of once per trial.
// Every other drawn page is marked dirty, since the snapshot's copy of
// its words is not what the array now holds.
func (a *Array) drawPages(p, q int) {
	var rng xrand.Rand
	rng.SetState(a.pendFrom)
	switch {
	case p == 0: // the recorded position is page 0's first draw
	case p < len(pageJumps):
		rng.JumpBy(&pageJumps[p])
	default:
		rng.Jump(uint64(p) * snapPageWords * 64)
	}
	w0, w1 := p<<snapPageShift, min((q+1)<<snapPageShift, len(a.bits))
	gamma := uint64(cellHashGamma)
	batchStep := gamma * 64 // wraps mod 2⁶⁴ like 64 incremental adds
	ig := uint64(w0) * batchStep
	words := a.bits[w0:w1]
	for w := range words {
		biased, pref := mode2PhaseA(a.cellSeed, ig)
		ig += batchStep
		words[w] = mode2Batch64(&rng, biased, pref)
	}
	a.pendInval.apply(words)
	a.drawn += uint64(len(words)) * 64
	s := a.snapOwner
	through := a.snapDirty != nil && s != nil && s.pending && s.pendFrom == a.pendFrom && s.pendInval == a.pendInval
	for i := p; i <= q; i++ {
		m := uint64(1) << (uint(i) & 63)
		a.pendPages[i>>6] &^= m
		pw0 := i << snapPageShift
		if through && s.pendPages[i>>6]&m != 0 {
			pw1 := min(pw0+snapPageWords, len(a.bits))
			copy(s.bits[pw0:pw1], a.bits[pw0:pw1])
			s.pendPages[i>>6] &^= m
		} else {
			a.markSnapPages(pw0, pw0)
		}
	}
	if through {
		s.pending = anySet(s.pendPages)
	}
}

// resolveDecay decides, for every cell, whether its state survived the
// excursion during which the rail sat at heldVolts (possibly 0). A cell
// survives if either the held voltage was at or above its personal DRV,
// or the unpowered interval was shorter than its personal retention time
// at the excursion temperature. Per 64-cell batch it builds a mask of
// decayed cells and the value word they power up into, then merges both
// into the packed storage with bitwise ops.
//
// The per-cell DRV and retention gates are precomputed once per
// excursion as integer thresholds on the hash field sums: both reference
// predicates are monotone in the field sum (the sigmas are positive), so
// a binary search evaluating the *exact reference float expression*
// finds the crossover sum, and the hot loop then needs only two hashes
// and two integer compares per surviving cell — zero float work.
func (a *Array) resolveDecay() {
	elapsed := float64(a.env.Now() - a.belowSince)
	if elapsed <= 0 {
		// The reference model computes statics for every cell but decays
		// none of them and consumes no rng draws — equivalent to a no-op.
		return
	}
	logThreshold := a.logDecayThreshold(elapsed)
	var (
		held      = a.heldVolts
		rng       = a.rng
		hasAging  = a.imprint != nil
		cellState = a.cellSeed // xor-folded per cell below
	)
	// Integer survival gates (see the function comment).
	drvSumMax := maxSumWhere(func(sum int) bool { //voltvet:ignore VV-HOT003 non-escaping predicate closure: the search helper only invokes it, so it stays on the stack
		// Exactly the reference DRV expression, evaluated at this sum.
		drv := NominalDRV + DRVSigma*((float64(sum)-131070.0)/37837.2)
		if drv < 0.05 {
			drv = 0.05
		}
		return held >= drv
	})
	retSumMin := minSumWhere(func(sum int) bool { //voltvet:ignore VV-HOT003 non-escaping predicate closure: the search helper only invokes it, so it stays on the stack
		return RetentionSigma*((float64(sum)-131070.0)/37837.2) > logThreshold
	})
	if drvSumMax >= maxFieldSum || retSumMin <= 0 {
		// Every possible cell survives: the excursion is a no-op (the
		// reference model would scan all cells, decay none, and consume no
		// rng draws).
		return
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
	checkDRV := drvSumMax >= 0
	checkRet := retSumMin <= maxFieldSum
	lost := 0
	ig := uint64(0) // i·gamma, maintained incrementally
	if !checkDRV && !checkRet && !hasAging && a.n&63 == 0 {
		// Full-decay fast path: both survival gates are degenerate — the
		// Volt Boot power cycle itself (rail at 0 V, outage far beyond any
		// cell's retention) — so every cell decays and no survival hash is
		// ever consulted. The result is a whole-array resample that ignores
		// the old contents, so it is deferred (pend) exactly like a first
		// power-up; a pending resample it replaces was never read.
		a.pend()
		a.env.Logf("sram", "%s: %d/%d cells decayed over %s at %.2fV held",
			a.name, a.n, a.n, sim.Time(elapsed), a.heldVolts) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
		return
	}
	if a.pending {
		// A partial decay reads the surviving cells: draw the pending
		// resample first.
		a.materialize(0, len(a.bits)-1)
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
			// Hash 1 → DRV gate; hash 2 → retention gate. Integer compares
			// against the precomputed crossover sums.
			if checkDRV && fieldSum16(xrand.Mix64(st+cellHashGamma)) <= drvSumMax {
				continue // rail held above this cell's DRV: perfect retention
			}
			if checkRet && fieldSum16(xrand.Mix64(st+cellHashGamma+cellHashGamma)) >= retSumMin {
				continue // charge survived the gap
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
				// Native bias, written out here (and in powerUpAll) so the
				// xoshiro update inlines into the cell loop.
				h3 := xrand.Mix64(st + cellHashGamma + cellHashGamma + cellHashGamma)
				if int(h3&0xFFFFFF) >= biasedMin {
					v = (h3>>63 == 1) != (rng.Uint64()>>11 < biasFlipBelow)
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

// powerUpAll samples a fresh power-up fingerprint for every cell. Every
// cell powers up, so no survival hashes are needed at all: the kernel
// jumps straight to each cell's third hash (bias/preference) and
// assembles whole storage words.
//
// The imprint overlay never decides a cell here. powerUpAll runs only at
// a die's first power-up, and a die that has never been powered has no
// imprinted cell: Age needs a powered array, and a restore to a snapshot
// taken before the first power-up clears the overlay. So the kernel
// defers the whole resample (pend) whenever the array is whole words.
func (a *Array) powerUpAll() {
	if a.n&63 == 0 {
		a.pend()
		a.env.Logf("sram", "%s: power-up into fingerprint state (%d bits)", a.name, a.n) //voltvet:ignore VV-HOT004 diagnostic logging on a power/decay event, not the per-instruction steady state; campaigns attach no log
		return
	}
	rng, cellState := a.rng, a.cellSeed
	ig := uint64(0)
	for w := range a.bits {
		count := min(a.n-w<<6, 64)
		var newBits uint64
		for k := 0; k < count; k++ {
			st := cellState ^ ig
			ig += cellHashGamma
			// Native bias, as in resolveDecay.
			h3 := xrand.Mix64(st + cellHashGamma + cellHashGamma + cellHashGamma)
			var v bool
			if int(h3&0xFFFFFF) >= biasedMin {
				v = (h3>>63 == 1) != (rng.Uint64()>>11 < biasFlipBelow)
			} else {
				v = rng.Uint64()&1 == 1
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
