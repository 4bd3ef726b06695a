package sram

// Copy-on-write snapshots: a sweep captures an array's full state once
// after the expensive boot-and-fill prefix, then restores it before each
// trial in O(dirty pages) instead of O(array size).
//
// The mechanism is a page table over the packed storage words. Capturing
// a snapshot copies the bits eagerly (one O(n) copy amortized over every
// trial of the sweep) and arms a dirty-page bitmap on the array: one bit
// per snapPageWords-word page, set by every write path that can touch the
// page. Restoring copies back only the dirty pages, resets the physics
// scalars and the rng to their captured values, and re-arms the bitmap
// for the next trial. Physics events (power-up fingerprints, decay
// resolution) and Fill rewrite most of the array, so they mark every
// page at once rather than paying a per-word branch in the kernels.
//
// Determinism contract: a restored array is bit-identical to the array
// at capture time — same contents, same rail/decay scalars, same rng
// stream position, same imprint overlay — so a trial run from a restored
// snapshot consumes the identical draw sequence and produces the
// identical bytes as a trial run on a freshly built board that executed
// the same prefix. "Same contents" includes a pending power-up resample
// (see kernels.go): the snapshot carries the stream position, the
// pending-page bitmap and the recorded invalidate rather than forcing
// the draws, and each drawn page is written through into the owner
// snapshot when it pends the same resample with the same invalidate and
// still pends that page, so a sweep pays for each page's draws once, not
// once per trial. The only field deliberately NOT restored is the
// derived-state generation counter: gen stays monotonic, and a restore
// that rewinds anything bumps it, so consumers' cached stamps can never
// alias across a rewind. A restore that rewinds nothing leaves it
// alone, so the stamps of a trial that did not touch the array stay
// valid.

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Snapshot page geometry: 64 packed words = 512 bytes per page. Small
// enough that a register-file write dirties 1/96th of the macro, large
// enough that the bitmap of a megabyte L2 array fits in 32 words.
const (
	snapPageShift = 6 // log2(words per page)
	snapPageWords = 1 << snapPageShift
)

// ArraySnapshot is the captured state of one Array. It is bound to the
// array it was captured from; restoring it elsewhere is a programming
// error.
type ArraySnapshot struct {
	arr  *Array
	bits []uint64

	railVolts   float64
	belowSince  sim.Time
	decayTempK  float64
	decaying    bool
	heldVolts   float64
	everPowered bool
	rng         xrand.State
	// pending/pendFrom/pendPages/pendInval carry a deferred power-up
	// resample instead of the pending pages' bits (which are then stale).
	// drawPages may later write drawn pages through into bits and clear
	// their pendPages bits; the logical content the snapshot captured
	// never changes.
	pending   bool
	pendFrom  xrand.State
	pendPages []uint64
	pendInval invalMasks

	// imprinted/value are deep copies of the aging overlay's bitsets,
	// nil when the array had no overlay at capture time.
	imprinted []uint64
	value     []uint64
}

// markSnapPages records that packed words [w0, w1] may have changed. The
// nil check is the entire cost when no snapshot is armed, which keeps
// the architectural write paths on their zero-allocation budget.
func (a *Array) markSnapPages(w0, w1 int) {
	if a.snapDirty == nil {
		return
	}
	for p := w0 >> snapPageShift; p <= w1>>snapPageShift; p++ {
		a.snapDirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// pagesOf returns the number of pages nw packed words span.
func pagesOf(nw int) int { return (nw + snapPageWords - 1) >> snapPageShift }

// pages returns the array's page count.
func (a *Array) pages() int { return pagesOf(len(a.bits)) }

// setPageBits sets the first np bits of the page bitmap bm. The final
// word is masked to the real page count: the bitmaps' walkers follow set
// bits, and a phantom page past the array would walk off the end.
func setPageBits(bm []uint64, np int) {
	for i := range bm {
		bm[i] = ^uint64(0)
	}
	if tail := uint(np) & 63; tail != 0 {
		bm[len(bm)-1] = 1<<tail - 1
	}
}

// anySet reports whether any bit of the page bitmap bm is set.
func anySet(bm []uint64) bool {
	for _, w := range bm {
		if w != 0 {
			return true
		}
	}
	return false
}

// markSnapAll dirties every page — the physics kernels and Fill rewrite
// most of the array, so per-word tracking would cost more than it saves.
func (a *Array) markSnapAll() {
	if a.snapDirty == nil {
		return
	}
	setPageBits(a.snapDirty, a.pages())
}

// armSnapDirty (re)arms the dirty-page bitmap with all pages clean.
func (a *Array) armSnapDirty() {
	if a.snapDirty == nil {
		a.snapDirty = make([]uint64, (a.pages()+63)/64)
		return
	}
	clear(a.snapDirty)
}

// CaptureSnapshot records the array's complete state — contents, rail
// and decay scalars, rng stream position, and aging overlay — and arms
// dirty-page tracking so a later RestoreSnapshot runs in O(dirty pages).
// Unlike Snapshot (an architectural readout), capturing is a simulator-
// level fork point and is legal on an unpowered array.
func (a *Array) CaptureSnapshot() *ArraySnapshot {
	s := &ArraySnapshot{
		arr:         a,
		bits:        make([]uint64, len(a.bits)),
		pendPages:   make([]uint64, len(a.pendPages)),
		railVolts:   a.railVolts,
		belowSince:  a.belowSince,
		decayTempK:  a.decayTempK,
		decaying:    a.decaying,
		heldVolts:   a.heldVolts,
		everPowered: a.everPowered,
		rng:         a.rng.State(),
		pending:     a.pending,
		pendFrom:    a.pendFrom,
		pendInval:   a.pendInval,
	}
	copy(s.bits, a.bits)
	copy(s.pendPages, a.pendPages)
	if a.imprint != nil {
		s.imprinted = append([]uint64(nil), a.imprint.imprinted...)
		s.value = append([]uint64(nil), a.imprint.value...)
	}
	a.armSnapDirty()
	a.snapOwner = s
	a.syncGen = a.gen
	return s
}

// RestoreSnapshot rewinds the array to the captured state. When s is the
// snapshot the dirty bitmap is tracking against (the common sweep loop:
// capture once, restore per trial), only dirty pages are copied back;
// restoring an older snapshot falls back to a full copy and re-arms
// tracking against s.
//
// The content generation is bumped, not rewound, when the restore
// copies a page, takes the full copy, or finds gen moved since the
// last capture or restore, so stamps handed out after the capture can
// never falsely validate. Otherwise the array's logical content is what
// it was at the last capture or restore of s, and gen stays: every
// event that changes logical content bumps gen or dirties a page (a
// page draw changes none, and is written through or dirtied), and a
// rail crossing down changes none until its decay resolves.
//
//voltvet:hotpath root
func (a *Array) RestoreSnapshot(s *ArraySnapshot) {
	if s.arr != a {
		panic(fmt.Sprintf("sram: RestoreSnapshot of %s onto %s", s.arr.name, a.name))
	}
	rewound := a.gen != a.syncGen
	if a.snapDirty != nil && a.snapOwner == s {
		nw := len(a.bits)
		for i, word := range a.snapDirty {
			if word != 0 {
				rewound = true
			}
			for ; word != 0; word &= word - 1 {
				p := i<<6 + bits.TrailingZeros64(word)
				w0 := p << snapPageShift
				w1 := w0 + snapPageWords
				if w1 > nw {
					w1 = nw
				}
				copy(a.bits[w0:w1], s.bits[w0:w1])
			}
			a.snapDirty[i] = 0
		}
	} else {
		copy(a.bits, s.bits)
		a.armSnapDirty()
		a.snapOwner = s
		rewound = true
	}
	a.railVolts = s.railVolts
	a.belowSince = s.belowSince
	a.decayTempK = s.decayTempK
	a.decaying = s.decaying
	a.heldVolts = s.heldVolts
	a.everPowered = s.everPowered
	a.rng.SetState(s.rng)
	a.pending = s.pending
	a.pendFrom = s.pendFrom
	a.pendInval = s.pendInval
	copy(a.pendPages, s.pendPages)
	if s.imprinted != nil {
		copy(a.imprint.imprinted, s.imprinted)
		copy(a.imprint.value, s.value)
	} else if a.imprint != nil {
		// The overlay appeared after the capture: clear it back to the
		// captured no-imprint state.
		clear(a.imprint.imprinted)
		clear(a.imprint.value)
	}
	if rewound {
		a.gen++
	}
	a.syncGen = a.gen
}
