package sram

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// The determinism contract: the word-vectorized kernels must be
// bit-for-bit identical to the per-bit reference model
// (reference_test.go) for the same seed — same resulting bits AND same
// rng stream consumption, so that everything downstream of a power event
// stays aligned too. The tests drive a pair of same-seed arrays (ref
// through refSetRail, vec through SetRail) through identical power
// sequences and compare physical state after every event.

// diffPair builds two identical arrays; the caller drives ref's rail
// through refSetRail (railPair does both).
func diffPair(t *testing.T, bits int, seed uint64, tempC float64) (ref, vec *Array, refEnv, vecEnv *sim.Env) {
	t.Helper()
	refEnv, vecEnv = sim.NewEnv(), sim.NewEnv()
	refEnv.SetTemperatureC(tempC)
	vecEnv.SetTemperatureC(tempC)
	ref = NewArray(refEnv, "diff", bits, seed)
	vec = NewArray(vecEnv, "diff", bits, seed)
	return ref, vec, refEnv, vecEnv
}

// railPair drives ref's rail through the reference kernels and vec's
// through the word kernels.
func railPair(ref, vec *Array, volts float64) {
	refSetRail(ref, volts)
	vec.SetRail(volts)
}

// mustEqualStream checks the rng stream positions agree without reading
// either array, so a pending resample on vec stays pending.
func mustEqualStream(t *testing.T, stage string, ref, vec *Array) {
	t.Helper()
	if rs, vs := ref.rng.State(), vec.rng.State(); rs != vs {
		t.Fatalf("%s: rng stream position diverged: ref=%+v vec=%+v", stage, rs, vs)
	}
}

func mustEqualState(t *testing.T, stage string, ref, vec *Array) {
	t.Helper()
	mustEqualStream(t, stage, ref, vec)
	if !bytes.Equal(ref.Snapshot(), vec.Snapshot()) {
		t.Fatalf("%s: word kernel diverged from scalar reference", stage)
	}
	// The raw packed words must match too, including any partial tail
	// word that Snapshot (whole bytes only) does not cover.
	for w := range ref.bits {
		if ref.bits[w] != vec.bits[w] {
			t.Fatalf("%s: packed word %d differs: ref=%#x vec=%#x", stage, w, ref.bits[w], vec.bits[w])
		}
	}
}

// sizes exercise the word-count edges: full words only, a partial tail
// word, and a sub-word array.
var diffSizes = []int{64 * 64, 64*64 + 17, 48}

func TestWordKernelsMatchScalarFirstPowerUp(t *testing.T) {
	for _, seed := range []uint64{1, 0xDEADBEEF, 0xA57A105} {
		for _, n := range diffSizes {
			ref, vec, _, _ := diffPair(t, n, seed, 25)
			railPair(ref, vec, 0.8)
			mustEqualState(t, "first power-up", ref, vec)
		}
	}
}

func TestWordKernelsMatchScalarPowerCycle(t *testing.T) {
	for _, seed := range []uint64{7, 0x5EED, 12345} {
		for _, n := range diffSizes {
			ref, vec, re, ve := diffPair(t, n, seed, 25)
			railPair(ref, vec, 0.8)
			ref.Fill(0xA5)
			vec.Fill(0xA5)
			// Three consecutive room-temperature cycles: any divergence in
			// rng consumption would desynchronize the later cycles.
			for cycle := 0; cycle < 3; cycle++ {
				railPair(ref, vec, 0)
				re.Advance(10 * sim.Millisecond)
				ve.Advance(10 * sim.Millisecond)
				railPair(ref, vec, 0.8)
				mustEqualState(t, "power cycle", ref, vec)
			}
		}
	}
}

func TestWordKernelsMatchScalarColdBoot(t *testing.T) {
	// −110 °C / 20 ms: the partial-survival regime where all three per-cell
	// hash gates (DRV, retention, bias) are exercised in the same event.
	for _, seed := range []uint64{3, 0xC01DB007, 999} {
		for _, n := range diffSizes {
			ref, vec, re, ve := diffPair(t, n, seed, -110)
			railPair(ref, vec, 0.8)
			ref.Fill(0x3C)
			vec.Fill(0x3C)
			railPair(ref, vec, 0)
			re.Advance(20 * sim.Millisecond)
			ve.Advance(20 * sim.Millisecond)
			railPair(ref, vec, 0.8)
			mustEqualState(t, "cold boot", ref, vec)
		}
	}
}

func TestWordKernelsMatchScalarHeldVoltage(t *testing.T) {
	// Rail held inside the DRV distribution: survival decided per cell by
	// the first hash alone for roughly half the population.
	for _, seed := range []uint64{11, 0xBADCAFE, 31337} {
		ref, vec, re, ve := diffPair(t, 1<<12, seed, 25)
		railPair(ref, vec, 0.8)
		ref.Fill(0xFF)
		vec.Fill(0xFF)
		railPair(ref, vec, 0.30)
		re.Advance(1 * sim.Second)
		ve.Advance(1 * sim.Second)
		railPair(ref, vec, 0.8)
		mustEqualState(t, "held voltage", ref, vec)
	}
}

func TestWordKernelsMatchScalarZeroGap(t *testing.T) {
	// A zero-length excursion: the scalar model scans all cells but decays
	// none and consumes no rng; the word kernel early-returns. The
	// follow-up cycle proves the rng streams stayed aligned.
	ref, vec, re, ve := diffPair(t, 2048, 42, 25)
	railPair(ref, vec, 0.8)
	railPair(ref, vec, 0)
	railPair(ref, vec, 0.8) // no time passed
	mustEqualState(t, "zero gap", ref, vec)
	railPair(ref, vec, 0)
	re.Advance(50 * sim.Millisecond)
	ve.Advance(50 * sim.Millisecond)
	railPair(ref, vec, 0.8)
	mustEqualState(t, "post-zero-gap cycle", ref, vec)
}

func TestWordKernelsMatchScalarWithImprint(t *testing.T) {
	// Aged arrays route decayed cells through the imprint overlay, which
	// consumes reveal draws — the most delicate rng-alignment path.
	for _, seed := range []uint64{5, 0x1312D00D, 77} {
		ref, vec, re, ve := diffPair(t, 1<<12, seed, 25)
		railPair(ref, vec, 0.8)
		ref.Fill(0x96)
		vec.Fill(0x96)
		ref.Age(10)
		vec.Age(10)
		if rf, vf := ref.ImprintedFraction(), vec.ImprintedFraction(); rf != vf {
			t.Fatalf("imprint fractions differ: %v vs %v", rf, vf)
		}
		for cycle := 0; cycle < 2; cycle++ {
			railPair(ref, vec, 0)
			re.Advance(100 * sim.Millisecond)
			ve.Advance(100 * sim.Millisecond)
			railPair(ref, vec, 0.8)
			mustEqualState(t, "imprinted power cycle", ref, vec)
		}
		// Incremental aging on top (exercises the fully-imprinted-word
		// skip in Age) must also stay aligned.
		ref.Age(25)
		vec.Age(25)
		railPair(ref, vec, 0)
		re.Advance(100 * sim.Millisecond)
		ve.Advance(100 * sim.Millisecond)
		railPair(ref, vec, 0.8)
		mustEqualState(t, "re-aged power cycle", ref, vec)
	}
}

// ---------------------------------------------------------------------------
// Deferred resamples. The word kernels turn a whole-array mode-2 power
// event into pend (record the stream position, jump the rng) and draw
// the bits on first read (materialize). The sequences below end a
// pending resample in every way the simulator can — a read, a partial
// or whole-array write, Fill, a partial decay, aging, a second full
// decay, a snapshot restore — and compare against the scalar reference,
// which always draws eagerly. 64·64 bits is the smallest array that
// pends (full words only).

const pendBits = 64 * 64

func mustPend(t *testing.T, stage string, vec *Array, want bool) {
	t.Helper()
	if vec.pending != want {
		t.Fatalf("%s: pending = %v, want %v", stage, vec.pending, want)
	}
}

func cyclePair(ref, vec *Array, re, ve *sim.Env, off sim.Time) {
	refSetRail(ref, 0)
	re.Advance(off)
	refSetRail(ref, 0.8)
	vec.SetRail(0)
	ve.Advance(off)
	vec.SetRail(0.8)
}

func TestPendingBackToBackFullDecays(t *testing.T) {
	for _, seed := range []uint64{2, 0x5EED, 0xFACADE} {
		ref, vec, re, ve := diffPair(t, pendBits, seed, 25)
		railPair(ref, vec, 0.8)
		mustPend(t, "first power-up", vec, true)
		mustEqualStream(t, "first power-up", ref, vec)
		for cycle := 0; cycle < 3; cycle++ {
			cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
			mustPend(t, "unread full decay", vec, true)
			mustEqualStream(t, "unread full decay", ref, vec)
		}
		mustEqualState(t, "read after three unread full decays", ref, vec)
		mustPend(t, "after read", vec, false)
	}
}

func TestPendingWholeArrayOverwrite(t *testing.T) {
	ref, vec, re, ve := diffPair(t, pendBits, 0xC0DE, 25)
	railPair(ref, vec, 0.8)
	buf := make([]byte, pendBits/8)
	for i := range buf {
		buf[i] = byte(7*i + 3)
	}
	ref.WriteBytes(0, buf)
	vec.WriteBytes(0, buf)
	mustPend(t, "whole-array WriteBytes", vec, false)
	mustEqualState(t, "whole-array WriteBytes", ref, vec)

	cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
	ref.Fill(0x5A)
	vec.Fill(0x5A)
	mustPend(t, "Fill", vec, false)
	mustEqualState(t, "Fill", ref, vec)

	// A write short of the whole array reads the surviving cells around
	// it, so it must draw first.
	cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
	ref.WriteBytes(0, buf[:len(buf)-1])
	vec.WriteBytes(0, buf[:len(buf)-1])
	mustPend(t, "partial WriteBytes", vec, false)
	mustEqualState(t, "partial WriteBytes", ref, vec)
}

func TestPendingPartialDecayAndAging(t *testing.T) {
	for _, seed := range []uint64{4, 0xBEEF} {
		// −110 °C / 20 ms decays only part of the array: the kernel reads
		// the survivors, so the pending fingerprint is drawn first.
		ref, vec, re, ve := diffPair(t, pendBits, seed, -110)
		railPair(ref, vec, 0.8)
		cyclePair(ref, vec, re, ve, 20*sim.Millisecond)
		mustPend(t, "partial decay", vec, false)
		mustEqualState(t, "partial decay", ref, vec)

		// Aging reads the held values; a later full decay stays eager
		// because the imprint overlay decides cells.
		ref, vec, re, ve = diffPair(t, pendBits, seed, 25)
		railPair(ref, vec, 0.8)
		ref.Age(10)
		vec.Age(10)
		mustEqualState(t, "aged pending fingerprint", ref, vec)
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		mustPend(t, "imprinted full decay", vec, false)
		mustEqualState(t, "imprinted full decay", ref, vec)
	}
}

// TestPendingFirstPowerUpAfterAgedRestore: a die rewound to a snapshot
// taken before its first power-up keeps an aging overlay with no
// imprinted cell, so its next first power-up still defers the whole
// resample and matches the reference, which consults the overlay cell
// by cell. A later decay cycle proves the streams stayed aligned.
func TestPendingFirstPowerUpAfterAgedRestore(t *testing.T) {
	for _, seed := range []uint64{8, 0xA6ED} {
		ref, vec, re, ve := diffPair(t, pendBits, seed, 25)
		sr, sv := ref.CaptureSnapshot(), vec.CaptureSnapshot()
		railPair(ref, vec, 0.8)
		ref.Age(10)
		vec.Age(10)
		ref.RestoreSnapshot(sr)
		vec.RestoreSnapshot(sv)
		if vec.imprint == nil || vec.ImprintedFraction() != 0 {
			t.Fatal("restore before the first power-up must leave an empty overlay")
		}
		railPair(ref, vec, 0.8)
		mustPend(t, "first power-up after an aged restore", vec, true)
		mustEqualState(t, "first power-up after an aged restore", ref, vec)
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		mustEqualState(t, "power cycle after an aged restore", ref, vec)
	}
}

func TestPendingPeek(t *testing.T) {
	ref, vec, _, _ := diffPair(t, pendBits, 0x7E57, 25)
	railPair(ref, vec, 0.8)
	for _, off := range []int{0, 8, 13, pendBits/8 - 16} {
		if got, want := vec.PeekUint64(off), ref.ReadUint64(off); got != want {
			t.Fatalf("PeekUint64(%d) on a pending array = %#x, want %#x", off, got, want)
		}
	}
	mustPend(t, "after peek", vec, false)
}

// TestPendingSnapshotSequences forks pending arrays the way sweeps do:
// capture while pending, materialize, write, restore — several trials in
// a row — and checks the write-through into the owner snapshot happens
// exactly when the snapshot pends the same resample.
func TestPendingSnapshotSequences(t *testing.T) {
	const n = 1563 * 64 // several snapshot pages, partial last page
	for _, seed := range []uint64{9, 0x5EED} {
		ref, vec, re, ve := diffPair(t, n, seed, 25)
		railPair(ref, vec, 0.8)
		sr, sv := ref.CaptureSnapshot(), vec.CaptureSnapshot()
		if !sv.pending {
			t.Fatal("snapshot of a pending array did not carry the pending resample")
		}
		restore := func(stage string) {
			t.Helper()
			ref.RestoreSnapshot(sr)
			vec.RestoreSnapshot(sv)
			mustEqualState(t, stage, ref, vec)
		}

		// Trial 1: capture → materialize → write → restore. The read
		// writes the drawn words through into the owner snapshot.
		mustEqualState(t, "trial 1 read", ref, vec)
		if sv.pending {
			t.Fatal("materialize did not write through into the owner snapshot")
		}
		ref.WriteUint64(640, 0xDEADBEEF)
		vec.WriteUint64(640, 0xDEADBEEF)
		restore("trial 1 restore")

		// Trial 2: a full decay re-pends before any read; restoring must
		// bring back the captured (now materialized) fingerprint.
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		mustPend(t, "trial 2 full decay", vec, true)
		restore("trial 2 restore")

		// A second snapshot captured while pending, then a different
		// resample drawn before the read: no write-through, since the
		// snapshot pends another stream position.
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		sr, sv = ref.CaptureSnapshot(), vec.CaptureSnapshot()
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		mustEqualState(t, "read of a newer resample", ref, vec)
		if !sv.pending {
			t.Fatal("materialize wrote a different resample through into the snapshot")
		}
		restore("restore of the still-pending snapshot")
		restore("second restore of the same snapshot")
	}
}

// ---------------------------------------------------------------------------
// Page-granular draws. A pending resample is drawn page by page, each
// page reached by one jump from the recorded stream position; the oracles below
// read random spans of pending arrays and compare every drawn page, word
// for word, with the reference model's eager whole-array draw, and the
// rng stream positions after every access.

// mustMatchDrawnPages compares vec's drawn pages with ref word for word,
// without drawing anything, and the rng stream positions.
func mustMatchDrawnPages(t *testing.T, stage string, ref, vec *Array) {
	t.Helper()
	mustEqualStream(t, stage, ref, vec)
	for p := 0; p < vec.pages(); p++ {
		if vec.pending && vec.pagePending(p) {
			continue
		}
		for w := p << snapPageShift; w < min((p+1)<<snapPageShift, len(vec.bits)); w++ {
			if ref.bits[w] != vec.bits[w] {
				t.Fatalf("%s: page %d word %d differs: ref=%#x vec=%#x", stage, p, w, ref.bits[w], vec.bits[w])
			}
		}
	}
}

// pendingPages counts vec's undrawn pages.
func pendingPages(vec *Array) int {
	n := 0
	for p := 0; p < vec.pages(); p++ {
		if vec.pending && vec.pagePending(p) {
			n++
		}
	}
	return n
}

// readSpans reads k random spans, a PeekUint64 and a one-word write from
// both arrays, comparing each result and the drawn pages after each.
func readSpans(t *testing.T, stage string, ref, vec *Array, r *xrand.Rand, k int) {
	t.Helper()
	nb := len(vec.bits) * 8
	for i := 0; i < k; i++ {
		off := r.Intn(nb - 8)
		n := 1 + r.Intn(min(3*snapPageWords*8, nb-off))
		if !bytes.Equal(ref.ReadBytes(off, n), vec.ReadBytes(off, n)) {
			t.Fatalf("%s: ReadBytes(%d, %d) differs", stage, off, n)
		}
		mustMatchDrawnPages(t, stage+" span", ref, vec)
		off = r.Intn(nb - 8)
		if got, want := vec.PeekUint64(off), ref.ReadUint64(off); got != want {
			t.Fatalf("%s: PeekUint64(%d) = %#x, want %#x", stage, off, got, want)
		}
		mustMatchDrawnPages(t, stage+" peek", ref, vec)
		off = r.Intn(nb-8) &^ 7
		ref.WriteUint64(off, uint64(i))
		vec.WriteUint64(off, uint64(i))
		mustMatchDrawnPages(t, stage+" write", ref, vec)
	}
}

// pageDrawWords are the oracle's array sizes in packed words: one page,
// a page and a half (a register file), two pages, many pages with a
// partial last page, and a last page past the page-jump table.
var pageDrawWords = []int{64, 96, 128, 1563, len(pageJumps)*snapPageWords + 17}

func TestPageDrawsMatchWholeArray(t *testing.T) {
	for _, seed := range []uint64{1, 0x5EED, 0xC0FFEE, 0xDEADBEEF} {
		for _, nw := range pageDrawWords {
			ref, vec, re, ve := diffPair(t, nw*64, seed, 25)
			r := xrand.New(seed ^ uint64(nw))
			railPair(ref, vec, 0.8)
			np := vec.pages()
			vec.ReadUint64(8 * (nw - 1)) // last page only
			mustMatchDrawnPages(t, "first read", ref, vec)
			want := np - 1
			if np <= wholeDrawPages {
				want = 0 // drawn whole on first access
			}
			if got := pendingPages(vec); got != want {
				t.Fatalf("%d words: %d pages pending after one read, want %d", nw, got, want)
			}
			readSpans(t, "first power-up", ref, vec, r, 6)

			// A resample stacked on a partly drawn one: the new pend
			// replaces every page, drawn or not.
			cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
			mustPend(t, "stacked resample", vec, true)
			if got := pendingPages(vec); got != np {
				t.Fatalf("%d words: %d of %d pages pending after a full decay", nw, got, np)
			}
			readSpans(t, "stacked resample", ref, vec, r, 6)
			mustEqualState(t, "whole read", ref, vec)
			mustPend(t, "whole read", vec, false)
		}
	}
}

// eagerInvalidate is the tag loop InvalidateWords replaces: read every
// word, and rewrite each valid one without its valid and dirty bits.
func eagerInvalidate(a *Array, valid, dirty uint64) {
	for w := range a.bits {
		if e := a.ReadUint64(8 * w); e&valid != 0 {
			a.WriteUint64(8*w, e&^(valid|dirty))
		}
	}
}

const (
	tagValid = uint64(1) << 63
	tagDirty = uint64(1) << 62
)

func TestDeferredInvalidateMatchesEagerLoop(t *testing.T) {
	const nw = 1563
	for _, seed := range []uint64{3, 0xBADCAFE, 0xFEED} {
		r := xrand.New(seed)
		invalidate := func(ref, vec *Array, valid, dirty uint64) {
			eagerInvalidate(ref, valid, dirty)
			vec.InvalidateWords(valid, dirty)
		}

		// Invalidate on a pending array, then on a partly drawn one.
		ref, vec, re, ve := diffPair(t, nw*64, seed, 25)
		railPair(ref, vec, 0.8)
		genBefore := vec.Gen()
		invalidate(ref, vec, tagValid, tagDirty)
		if vec.Gen() == genBefore {
			t.Fatal("InvalidateWords did not bump gen")
		}
		if got := pendingPages(vec); got != vec.pages() {
			t.Fatalf("invalidate drew %d pages of a pending array", vec.pages()-got)
		}
		readSpans(t, "invalidated pending array", ref, vec, r, 4)
		invalidate(ref, vec, tagValid, tagDirty) // idempotent on pending pages
		readSpans(t, "invalidated partly drawn array", ref, vec, r, 4)

		// A different transform draws every pending page first.
		invalidate(ref, vec, 1, 2)
		mustPend(t, "different transform", vec, false)
		mustEqualState(t, "different transform", ref, vec)

		// Invalidate, then a power cycle: the new resample drops the
		// recorded transform.
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		invalidate(ref, vec, tagValid, tagDirty)
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		readSpans(t, "power cycle after invalidate", ref, vec, r, 4)
		mustEqualState(t, "power cycle after invalidate", ref, vec)

		// Restores to snapshots taken before and after an invalidate,
		// with pages drawn in between: no page drawn under one transform
		// may leak into a snapshot that pends the other.
		cyclePair(ref, vec, re, ve, 10*sim.Millisecond)
		sr0, sv0 := ref.CaptureSnapshot(), vec.CaptureSnapshot()
		invalidate(ref, vec, tagValid, tagDirty)
		sr1, sv1 := ref.CaptureSnapshot(), vec.CaptureSnapshot()
		readSpans(t, "after the invalidate's snapshot", ref, vec, r, 4)
		for trial := 0; trial < 3; trial++ {
			ref.RestoreSnapshot(sr0)
			vec.RestoreSnapshot(sv0)
			readSpans(t, "restored before the invalidate", ref, vec, r, 3)
			ref.RestoreSnapshot(sr1)
			vec.RestoreSnapshot(sv1)
			readSpans(t, "restored after the invalidate", ref, vec, r, 3)
			ref.RestoreSnapshot(sr0)
			vec.RestoreSnapshot(sv0)
			invalidate(ref, vec, tagValid, tagDirty)
			readSpans(t, "invalidated again after a restore", ref, vec, r, 3)
		}
		mustEqualState(t, "restore sequence", ref, vec)
	}
}

// repend marks every page of a's current resample pending again, so a
// test can draw the same pages repeatedly.
func repend(a *Array) {
	a.pending = true
	setPageBits(a.pendPages, a.pages())
}

// TestMaterializeZeroAlloc: drawing a deferred resample replays into a
// stack generator and allocates nothing: a page of a many-page array
// (reached by a Jump) and a whole small array, on both the write-through
// and the mark-dirty branch, and a deferred invalidate on pending and
// drawn pages.
func TestMaterializeZeroAlloc(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "alloc", 64*1024*8, 3)
	small := NewArray(env, "regs", 96*64, 4)
	a.SetRail(0.8)
	small.SetRail(0.8)
	a.CaptureSnapshot()
	small.CaptureSnapshot()
	allocs := testing.AllocsPerRun(10, func() {
		repend(a)
		a.InvalidateWords(1<<63, 1<<62)
		_ = a.ReadUint64(77 * snapPageWords * 8)
		a.InvalidateWords(1<<63, 1<<62)
		repend(small)
		_ = small.ReadUint64(0)
	})
	if allocs != 0 {
		t.Fatalf("materialize allocated %.1f times per run, want 0", allocs)
	}
}

func TestFractionOnesTailBits(t *testing.T) {
	// n deliberately not a multiple of 64: the popcount must mask the tail.
	env := sim.NewEnv()
	a := NewArray(env, "tail", 100, 9)
	a.SetRail(0.8)
	for i := 0; i < 100; i++ {
		a.WriteBit(i, i < 25)
	}
	if got := a.FractionOnes(); got != 0.25 {
		t.Fatalf("FractionOnes = %v, want 0.25", got)
	}
}

func TestFillTailBytes(t *testing.T) {
	// Bytes() = 12 for a 100-bit array: the word splat covers 8 bytes, the
	// byte path the remaining 4; bits 96..99 must be untouched.
	env := sim.NewEnv()
	a := NewArray(env, "tail", 100, 10)
	a.SetRail(0.8)
	for i := 96; i < 100; i++ {
		a.WriteBit(i, true)
	}
	a.Fill(0x00)
	for i := 0; i < 96; i++ {
		if a.ReadBit(i) {
			t.Fatalf("bit %d not cleared by Fill", i)
		}
	}
	for i := 96; i < 100; i++ {
		if !a.ReadBit(i) {
			t.Fatalf("Fill clobbered out-of-byte-range bit %d", i)
		}
	}
	a.Fill(0xB7)
	got := a.ReadBytes(0, 12)
	for i, b := range got {
		if b != 0xB7 {
			t.Fatalf("byte %d = %#x after Fill(0xB7)", i, b)
		}
	}
}

func TestUnalignedByteAndWordAccess(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "unaligned", 4096, 11)
	a.SetRail(0.8)
	a.Fill(0x00)
	// Unaligned spans crossing multiple word boundaries.
	payload := make([]byte, 41)
	for i := range payload {
		payload[i] = byte(3*i + 1)
	}
	a.WriteBytes(13, payload)
	if got := a.ReadBytes(13, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("unaligned round trip mismatch:\n got %x\nwant %x", got, payload)
	}
	// Neighbours untouched.
	if a.ReadBytes(12, 1)[0] != 0 || a.ReadBytes(13+len(payload), 1)[0] != 0 {
		t.Fatal("unaligned write clobbered neighbouring bytes")
	}
	// Unaligned 64-bit loads/stores against the byte-path ground truth.
	const v = uint64(0x0123456789ABCDEF)
	for _, off := range []int{0, 1, 7, 8, 21} {
		a.Fill(0x11)
		a.WriteUint64(off, v)
		if got := a.ReadUint64(off); got != v {
			t.Fatalf("ReadUint64(%d) = %#x, want %#x", off, got, v)
		}
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		if got := a.ReadBytes(off, 8); !bytes.Equal(got, b[:]) {
			t.Fatalf("WriteUint64(%d) bytes = %x, want %x", off, got, b)
		}
		if a.ReadBytes(off+8, 1)[0] != 0x11 {
			t.Fatalf("WriteUint64(%d) clobbered the following byte", off)
		}
		if off > 0 && a.ReadBytes(off-1, 1)[0] != 0x11 {
			t.Fatalf("WriteUint64(%d) clobbered the preceding byte", off)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the kernels the whole evaluation funnels through.

func benchCycleArray() (*Array, *sim.Env) {
	env := sim.NewEnv()
	a := NewArray(env, "bench", 64*1024*8, 1)
	a.SetRail(0.8)
	return a, env
}

func benchResolveDecay(b *testing.B, tempC float64, setRail func(*Array, float64)) {
	a, env := benchCycleArray()
	env.SetTemperatureC(tempC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setRail(a, 0)
		env.Advance(20 * sim.Millisecond)
		setRail(a, 0.8)
		_ = a.ReadUint64(0) // draws a deferred full-decay resample
	}
}

// BenchmarkResolveDecay measures the decay kernel over a 64 KB array.
// The −110 °C case is the mixed-survival regime (every hash gate hit);
// the 25 °C case is total loss (power-up sampling dominates), which the
// word kernel defers until the read that follows each cycle.
func BenchmarkResolveDecay(b *testing.B) {
	b.Run("cold-110C", func(b *testing.B) { benchResolveDecay(b, -110, (*Array).SetRail) })
	b.Run("room25C", func(b *testing.B) { benchResolveDecay(b, 25, (*Array).SetRail) })
}

// BenchmarkResolveDecayScalar is the per-bit reference for comparison.
func BenchmarkResolveDecayScalar(b *testing.B) {
	b.Run("cold-110C", func(b *testing.B) { benchResolveDecay(b, -110, refSetRail) })
	b.Run("room25C", func(b *testing.B) { benchResolveDecay(b, 25, refSetRail) })
}

func benchPowerUpAll(b *testing.B, powerUp func(*Array)) {
	a, _ := benchCycleArray()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		powerUp(a)
		_ = a.ReadUint64(0) // draws the deferred fingerprint
	}
}

// BenchmarkPowerUpAll measures the fingerprint kernel over a 64 KB array,
// read back once so the deferred draws are timed, not just the jump.
func BenchmarkPowerUpAll(b *testing.B)       { benchPowerUpAll(b, (*Array).powerUpAll) }
func BenchmarkPowerUpAllScalar(b *testing.B) { benchPowerUpAll(b, (*Array).powerUpAllScalar) }

// BenchmarkFill measures the splat fill across a 64 KB array.
func BenchmarkFill(b *testing.B) {
	a, _ := benchCycleArray()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Fill(byte(i))
	}
}

// BenchmarkWriteBytes4KB measures the aligned bulk-store path.
func BenchmarkWriteBytes4KB(b *testing.B) {
	a, _ := benchCycleArray()
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.WriteBytes(0, buf)
	}
}
