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
// (see kernels.go): the snapshot carries the pending flag and stream
// position rather than forcing the draws, and materialization writes
// the drawn words through into the owner snapshot that pends the same
// resample, so a sweep pays for the draws once, not once per trial. The
// only field deliberately NOT restored is the derived-state generation
// counter: gen stays monotonic and is bumped by the restore, so
// consumers' cached stamps can never alias across a rewind.

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
	// pending/pendFrom carry a deferred power-up resample instead of its
	// bits (which are then stale). materialize may later write the drawn
	// bits through into bits and clear pending; the logical content the
	// snapshot captured never changes.
	pending  bool
	pendFrom xrand.State

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

// markSnapAll dirties every page — the physics kernels and Fill rewrite
// most of the array, so per-word tracking would cost more than it saves.
// The final bitmap word is masked to the real page count: restore walks
// set bits, and a phantom page past the array would walk off the end.
func (a *Array) markSnapAll() {
	if a.snapDirty == nil {
		return
	}
	for i := range a.snapDirty {
		a.snapDirty[i] = ^uint64(0)
	}
	npages := (len(a.bits) + snapPageWords - 1) >> snapPageShift
	if tail := uint(npages) & 63; tail != 0 {
		a.snapDirty[len(a.snapDirty)-1] = 1<<tail - 1
	}
}

// armSnapDirty (re)arms the dirty-page bitmap with all pages clean.
func (a *Array) armSnapDirty() {
	npages := (len(a.bits) + snapPageWords - 1) >> snapPageShift
	if a.snapDirty == nil {
		a.snapDirty = make([]uint64, (npages+63)/64)
		return
	}
	for i := range a.snapDirty {
		a.snapDirty[i] = 0
	}
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
		railVolts:   a.railVolts,
		belowSince:  a.belowSince,
		decayTempK:  a.decayTempK,
		decaying:    a.decaying,
		heldVolts:   a.heldVolts,
		everPowered: a.everPowered,
		rng:         a.rng.State(),
		pending:     a.pending,
		pendFrom:    a.pendFrom,
	}
	copy(s.bits, a.bits)
	if a.imprint != nil {
		s.imprinted = append([]uint64(nil), a.imprint.imprinted...)
		s.value = append([]uint64(nil), a.imprint.value...)
	}
	a.armSnapDirty()
	a.snapOwner = s
	return s
}

// RestoreSnapshot rewinds the array to the captured state. When s is the
// snapshot the dirty bitmap is tracking against (the common sweep loop:
// capture once, restore per trial), only dirty pages are copied back;
// restoring an older snapshot falls back to a full copy and re-arms
// tracking against s. The content generation is bumped, not rewound, so
// stamps handed out after the capture can never falsely validate.
//
//voltvet:hotpath root
func (a *Array) RestoreSnapshot(s *ArraySnapshot) {
	if s.arr != a {
		panic(fmt.Sprintf("sram: RestoreSnapshot of %s onto %s", s.arr.name, a.name))
	}
	if a.snapDirty != nil && a.snapOwner == s {
		nw := len(a.bits)
		for i, word := range a.snapDirty {
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
	if s.imprinted != nil {
		copy(a.imprint.imprinted, s.imprinted)
		copy(a.imprint.value, s.value)
	} else if a.imprint != nil {
		// The overlay appeared after the capture: clear it back to the
		// captured no-imprint state.
		for i := range a.imprint.imprinted {
			a.imprint.imprinted[i] = 0
			a.imprint.value[i] = 0
		}
	}
	a.gen++
}
