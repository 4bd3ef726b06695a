// Package sram models embedded 6T SRAM arrays at the fidelity the Volt
// Boot attack cares about: whether each cell's state survives a given
// excursion of its supply rail, and what value the cell powers up into
// when it does not.
//
// The model captures four physical facts from the paper (§2.1, §3, §5):
//
//  1. A cell retains its state as long as its rail voltage stays at or
//     above the cell's data retention voltage (DRV), which is well below
//     the nominal domain voltage and varies per cell with process
//     variation.
//  2. When the rail falls below DRV, the cell's state is held only by
//     intrinsic capacitance, which discharges with a strongly
//     temperature-dependent time constant — milliseconds at −110 °C,
//     microseconds at room temperature.
//  3. A cell whose charge fully leaks powers up into a per-cell preferred
//     state (the power-up fingerprint exploited by SRAM PUFs): most cells
//     are strongly biased to 0 or 1, a minority are metastable. Two
//     successive power-ups of the same array differ by a fractional
//     Hamming distance of roughly 0.10, and the fingerprint is
//     uncorrelated with any data previously stored (≈0.50 fractional HD).
//  4. SRAM is bistable: nothing about a decayed cell reveals whether it
//     held a 0 or a 1, which is what makes partial cold-boot images of
//     SRAM so much harder to post-process than DRAM images.
//
// Three engineering choices keep megabyte-scale arrays (an SoC's L2)
// cheap: decay is integrated lazily per unpowered interval rather than
// ticked; a power event that resamples the whole array is deferred, page
// by page, until something reads it (see kernels.go); and per-cell
// silicon properties (DRV, retention multiplier, power-up bias) are
// derived on demand from a per-cell hash instead of being stored, so an
// array costs one bit of memory per cell. The hash-derived normals use an Irwin–Hall (sum of
// four uniforms) approximation, which is accurate to ±3.4σ — plenty for
// population statistics.
package sram

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// The retention calibration: the physical constants governing cell decay
// and power-up behaviour, calibrated against the paper's §3 measurements
// and the low-temperature SRAM remanence literature it cites so that
//
//   - at −110 °C the median retention is ≈60 ms (≈85 % of cells survive a
//     20 ms power-off, matching the ~80 % reported by the remanence
//     studies the paper cites),
//   - at −40 °C the median is ≈200 µs (a multi-millisecond power cycle
//     retains essentially nothing — Table 1),
//   - at room temperature the median is ≈10 µs,
//   - two power-ups of the same array differ by ≈0.10 fractional HD
//     (Table 1 caption).
const (
	// NominalDRV is the mean data retention voltage in volts. A rail at or
	// above a cell's DRV retains data indefinitely.
	NominalDRV = 0.30
	// DRVSigma is the per-cell standard deviation of DRV (process
	// variation), in volts.
	DRVSigma = 0.04
	// MedianRetention300K is the median intrinsic retention time at 300 K
	// once the rail is below DRV.
	MedianRetention300K = 10 * sim.Microsecond
	// ActivationK is the Arrhenius activation term Eₐ/k in Kelvin; the
	// median retention scales as exp(ActivationK·(1/T − 1/300)).
	ActivationK = 3093
	// RetentionSigma is the lognormal shape parameter of per-cell
	// retention times.
	RetentionSigma = 1.0
	// NeutralFraction is the fraction of cells with no power-up
	// preference; the remainder power up to a fixed preferred value with
	// probability 1−BiasNoise.
	NeutralFraction = 0.20
	// BiasNoise is the probability that a biased cell powers up against
	// its preference.
	BiasNoise = 0.02
)

// RetentionThreshold is the rail voltage above which every cell in the
// population retains (mean DRV plus three sigma).
const RetentionThreshold = NominalDRV + 3*DRVSigma

// MedianRetentionAt returns the median intrinsic retention time at the
// given temperature in Kelvin.
func MedianRetentionAt(kelvin float64) sim.Time {
	if kelvin <= 0 {
		panic("sram: non-positive absolute temperature")
	}
	scale := math.Exp(ActivationK * (1/kelvin - 1.0/300.0))
	return sim.Time(float64(MedianRetention300K) * scale)
}

// Array is one physical SRAM macro: a set of bits sharing a supply rail.
// Cache data RAMs, tag RAMs, register files, and iRAMs are all Arrays of
// different sizes.
type Array struct {
	name string
	//voltvet:nosnap shared simulation clock; owned by the environment and rewound by the SoC snapshot (now/tempC)
	env *sim.Env
	// rng drives the irreproducible noise (metastable power-up cells);
	// cellSeed drives the reproducible silicon lottery.
	rng      *xrand.Rand
	cellSeed uint64

	// bits is the current logical content, valid only when powered.
	bits []uint64 // bit-packed, len = ceil(n/64)
	n    int      // number of bits

	// railVolts is the instantaneous rail voltage.
	railVolts float64
	// belowSince is the time the rail last fell below the retention
	// threshold; meaningful only when decaying is true.
	belowSince sim.Time
	// decayTempK is the temperature at the moment decay started. The
	// paper's scenarios never change temperature mid-power-cycle, so a
	// single temperature per excursion is exact for them.
	decayTempK float64
	decaying   bool
	// heldVolts is the lowest rail voltage seen during the current
	// excursion, which is what individual cells compare their DRV to.
	heldVolts float64
	// everPowered tracks whether the array has been powered at least
	// once; a never-powered array powers up into its fingerprint.
	everPowered bool
	// gen counts every event that can change the array's contents: writes
	// through any architectural accessor, fills, and the physics events
	// (power-up fingerprints, decay resolution). Consumers caching derived
	// views of the array — e.g. the SoC's last-written-TLB-slot memo — use
	// it as an "anything moved" signal. Derived state, not physics.
	gen uint64
	// syncGen is gen as of the last capture or restore. A restore whose
	// array still holds that generation and copies no page rewinds
	// nothing, so it leaves gen alone (see RestoreSnapshot).
	syncGen uint64
	// imprint is the lazily allocated aging overlay (see imprint.go).
	imprint *imprintState
	// pending marks contents with pages of a deferred full power-up
	// resample still undrawn: the power event recorded the rng stream
	// position its draws start at in pendFrom and jumped the rng past
	// them, leaving bits stale. pendPages has one bit per snapshot page
	// still pending; the first access to a page draws it (materialize),
	// and a whole-array overwrite drops the resample unread. pendInval is
	// an invalidate recorded on the pending pages, applied as each page
	// is drawn. See kernels.go.
	pending   bool
	pendFrom  xrand.State
	pendPages []uint64
	pendInval invalMasks
	// drawn counts the bits drawn from deferred resamples: a work
	// counter for probes, never rewound.
	//voltvet:nosnap work counter: bits drawn since the array was built, monotonic across rewinds like the simulator's other counters
	drawn uint64
	// snapDirty, when non-nil, is the armed copy-on-write page table:
	// one bit per snapPageWords-word page, set by every write path that
	// can change the page since the owning snapshot was captured (see
	// snapshot.go). snapOwner identifies the snapshot the bitmap tracks
	// against. Derived state, not physics.
	snapDirty []uint64
	snapOwner *ArraySnapshot
}

// NewArray builds an array of n bits named name. The per-cell silicon
// properties are derived deterministically from seed, so the same seed
// always yields the same chip. The array starts unpowered.
func NewArray(env *sim.Env, name string, n int, seed uint64) *Array {
	if n <= 0 {
		panic("sram: array size must be positive")
	}
	derived := xrand.Derive(seed, "sram:"+name)
	nw := (n + 63) / 64
	return &Array{
		name:      name,
		env:       env,
		rng:       derived,
		cellSeed:  derived.Uint64(),
		bits:      make([]uint64, nw),
		pendPages: make([]uint64, (pagesOf(nw)+63)/64),
		n:         n,
	}
}

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Bits returns the number of bits in the array.
func (a *Array) Bits() int { return a.n }

// Bytes returns the array size in bytes (bits/8, rounded down).
func (a *Array) Bytes() int { return a.n / 8 }

// RailVolts returns the instantaneous rail voltage.
func (a *Array) RailVolts() float64 { return a.railVolts }

// Powered reports whether the rail is above the population retention
// threshold (enough for every cell).
func (a *Array) Powered() bool {
	return a.railVolts >= RetentionThreshold
}

// SetRail drives the array's supply rail to volts at the current
// simulation time. Crossing below the retention threshold starts the
// decay clock; crossing back above resolves per-cell survival against
// the lowest voltage seen during the excursion.
func (a *Array) SetRail(volts float64) {
	if volts == a.railVolts && (a.everPowered || volts == 0) {
		return
	}
	prev := a.railVolts
	a.railVolts = volts

	wasUp := prev >= RetentionThreshold
	isUp := volts >= RetentionThreshold

	switch {
	case !a.everPowered && isUp:
		// First power-on of the die: whole array boots into fingerprint.
		a.gen++
		a.markSnapAll()
		a.powerUpAll()
		a.everPowered = true
		a.decaying = false
	case wasUp && !isUp:
		// Rail heading down into (or through) the retention band.
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
		a.resolveDecay()
		a.decaying = false
	}
}

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

// DrawnBits returns how many bits the array has drawn from deferred
// power-up resamples since it was built (see kernels.go). Restores do
// not rewind it.
func (a *Array) DrawnBits() uint64 { return a.drawn }

// panicUnpowered reports an access to an unpowered array: a programming
// error, since real hardware cannot access one either.
func (a *Array) panicUnpowered(op string) {
	panic(fmt.Sprintf("sram: %s on unpowered array %s (rail %.2fV)", op, a.name, a.railVolts))
}

// checkAccess panics on an unpowered array and draws the pending pages
// covering packed words [w0, w1], so every architectural reader and
// partial writer sees the bits the power event drew. On an array with
// nothing pending — every array once its resample is drawn, and every
// register file after its first access — the pending test is the whole
// cost on the step path.
func (a *Array) checkAccess(op string, w0, w1 int) {
	if a.pending || !a.Powered() {
		a.accessSlow(op, w0, w1)
	}
}

// accessSlow is checkAccess's slow path, kept out of line so that
// checkAccess inlines into every accessor. An access within one drawn
// page of a partly drawn array, the common case on a fault rig's tag
// RAMs, costs one page test.
func (a *Array) accessSlow(op string, w0, w1 int) {
	if !a.Powered() {
		a.panicUnpowered(op)
	}
	if p := w0 >> snapPageShift; p == w1>>snapPageShift && uint(w1) < uint(len(a.bits)) && !a.pagePending(p) {
		return
	}
	a.materialize(w0, w1)
}

// dropPending discards a pending resample unread, for writers that
// overwrite the whole array.
func (a *Array) dropPending() {
	a.pending = false
	a.pendInval = invalMasks{}
	clear(a.pendPages)
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

// storeByte stores value v into byte slot j of the packed words. Byte j
// of the array occupies bits [8j, 8j+8) which sit inside packed word j>>3
// at shift 8·(j&7) — so byte access is O(1).
func (a *Array) storeByte(j int, v byte) {
	shift := 8 * uint(j&7)
	w := &a.bits[j>>3]
	*w = (*w &^ (uint64(0xFF) << shift)) | uint64(v)<<shift
}

// WriteBytes stores b starting at byte offset off. Spans that cover full
// 64-bit words are stored word-at-a-time; only the unaligned head and
// tail go through the byte path.
//
// A write covering the whole array (the Broadcom VideoCore's L2 clobber)
// drops a pending power-up resample without drawing it: nothing can read
// the fingerprint it would have produced.
func (a *Array) WriteBytes(off int, b []byte) {
	if off == 0 && len(b)*8 == a.n && a.Powered() {
		a.dropPending()
	}
	a.checkAccess("WriteBytes", off>>3, (off+len(b)-1)>>3)
	if off < 0 || (off+len(b))*8 > a.n {
		panic(fmt.Sprintf("sram: WriteBytes out of range on %s: off=%d len=%d size=%dB", a.name, off, len(b), a.Bytes()))
	}
	a.gen++
	a.markSnapPages(off>>3, (off+len(b)-1)>>3)
	i, j := 0, off
	for ; i < len(b) && j&7 != 0; i++ { // head: reach word alignment
		a.storeByte(j, b[i])
		j++
	}
	for ; i+8 <= len(b); i += 8 { // middle: whole packed words
		a.bits[j>>3] = binary.LittleEndian.Uint64(b[i:])
		j += 8
	}
	for ; i < len(b); i++ { // tail
		a.storeByte(j, b[i])
		j++
	}
}

// ReadBytes returns n bytes starting at byte offset off. Like
// WriteBytes, aligned spans are copied word-at-a-time.
func (a *Array) ReadBytes(off, n int) []byte {
	a.checkAccess("ReadBytes", off>>3, (off+n-1)>>3)
	if off < 0 || n < 0 || (off+n)*8 > a.n {
		panic(fmt.Sprintf("sram: ReadBytes out of range on %s: off=%d len=%d size=%dB", a.name, off, n, a.Bytes()))
	}
	out := make([]byte, n)
	i, j := 0, off
	for ; i < n && j&7 != 0; i++ {
		out[i] = byte(a.bits[j>>3] >> (8 * uint(j&7)))
		j++
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], a.bits[j>>3])
		j += 8
	}
	for ; i < n; i++ {
		out[i] = byte(a.bits[j>>3] >> (8 * uint(j&7)))
		j++
	}
	return out
}

// WriteUint64 stores a 64-bit little-endian word at byte offset off. It
// is allocation-free: an aligned store is a single packed-word write, an
// unaligned one touches the two straddled words.
func (a *Array) WriteUint64(off int, v uint64) {
	a.checkAccess("WriteUint64", off>>3, (off+7)>>3)
	if off < 0 || (off+8)*8 > a.n {
		panic(fmt.Sprintf("sram: WriteUint64 out of range on %s: off=%d size=%dB", a.name, off, a.Bytes()))
	}
	a.gen++
	a.markSnapPages(off>>3, (off+7)>>3)
	w := off >> 3
	shift := 8 * uint(off&7)
	if shift == 0 {
		a.bits[w] = v
		return
	}
	lowMask := uint64(1)<<shift - 1
	a.bits[w] = (a.bits[w] & lowMask) | v<<shift
	a.bits[w+1] = (a.bits[w+1] &^ lowMask) | v>>(64-shift)
}

// PeekUint64 is ReadUint64 without the access bookkeeping: no power
// check, no bounds diagnostics — a probe-side tap for observers (the
// power-trace capturer) that must read cell contents at zero
// architectural and near-zero runtime cost. off must be in range and
// 8-byte aligned reads are the fast path, exactly as for ReadUint64.
func (a *Array) PeekUint64(off int) uint64 {
	if a.pending {
		a.materialize(off>>3, (off+7)>>3)
	}
	w := off >> 3
	shift := 8 * uint(off&7)
	if shift == 0 {
		return a.bits[w]
	}
	return a.bits[w]>>shift | a.bits[w+1]<<(64-shift)
}

// ReadUint64 loads a 64-bit little-endian word from byte offset off
// without allocating.
func (a *Array) ReadUint64(off int) uint64 {
	a.checkAccess("ReadUint64", off>>3, (off+7)>>3)
	if off < 0 || (off+8)*8 > a.n {
		panic(fmt.Sprintf("sram: ReadUint64 out of range on %s: off=%d size=%dB", a.name, off, a.Bytes()))
	}
	w := off >> 3
	shift := 8 * uint(off&7)
	if shift == 0 {
		return a.bits[w]
	}
	return a.bits[w]>>shift | a.bits[w+1]<<(64-shift)
}

// WriteUintN stores the low size bytes of v little-endian at byte offset
// off, for 1 ≤ size ≤ 8. Like WriteUint64 it operates directly on the
// packed words — at most two are touched — so subword cache traffic
// (byte/half/word stores, ECC-word updates) never needs a scratch slice.
func (a *Array) WriteUintN(off, size int, v uint64) {
	a.checkAccess("WriteUintN", off>>3, (off+size-1)>>3)
	if off < 0 || size < 1 || size > 8 || (off+size)*8 > a.n {
		panic(fmt.Sprintf("sram: WriteUintN out of range on %s: off=%d size=%d arr=%dB", a.name, off, size, a.Bytes()))
	}
	nbits := uint(8 * size)
	var mask uint64
	if nbits == 64 {
		mask = ^uint64(0)
	} else {
		mask = uint64(1)<<nbits - 1
	}
	v &= mask
	a.gen++
	a.markSnapPages(off>>3, (off+size-1)>>3)
	w := off >> 3
	shift := 8 * uint(off&7)
	a.bits[w] = (a.bits[w] &^ (mask << shift)) | v<<shift
	if spill := shift + nbits; spill > 64 {
		rem := spill - 64 // bits landing in the next word
		hiMask := uint64(1)<<rem - 1
		a.bits[w+1] = (a.bits[w+1] &^ hiMask) | v>>(nbits-rem)
	}
}

// ReadUintN loads size bytes little-endian from byte offset off, for
// 1 ≤ size ≤ 8, without allocating.
func (a *Array) ReadUintN(off, size int) uint64 {
	a.checkAccess("ReadUintN", off>>3, (off+size-1)>>3)
	if off < 0 || size < 1 || size > 8 || (off+size)*8 > a.n {
		panic(fmt.Sprintf("sram: ReadUintN out of range on %s: off=%d size=%d arr=%dB", a.name, off, size, a.Bytes()))
	}
	nbits := uint(8 * size)
	var mask uint64
	if nbits == 64 {
		mask = ^uint64(0)
	} else {
		mask = uint64(1)<<nbits - 1
	}
	w := off >> 3
	shift := 8 * uint(off&7)
	v := a.bits[w] >> shift
	if shift+nbits > 64 {
		v |= a.bits[w+1] << (64 - shift)
	}
	return v & mask
}

// ReadBytesInto copies len(dst) bytes starting at byte offset off into
// dst — the allocation-free form of ReadBytes, used by the cache fill
// and writeback paths to reuse a scratch line buffer.
func (a *Array) ReadBytesInto(off int, dst []byte) {
	n := len(dst)
	a.checkAccess("ReadBytesInto", off>>3, (off+n-1)>>3)
	if off < 0 || (off+n)*8 > a.n {
		panic(fmt.Sprintf("sram: ReadBytesInto out of range on %s: off=%d len=%d size=%dB", a.name, off, n, a.Bytes()))
	}
	i, j := 0, off
	for ; i < n && j&7 != 0; i++ {
		dst[i] = byte(a.bits[j>>3] >> (8 * uint(j&7)))
		j++
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], a.bits[j>>3])
		j += 8
	}
	for ; i < n; i++ {
		dst[i] = byte(a.bits[j>>3] >> (8 * uint(j&7)))
		j++
	}
}

// Fill writes the byte pattern v across the whole array by splatting it
// into a packed word and storing words directly — no scratch buffer. Like
// a whole-array WriteBytes it drops a pending resample unread.
func (a *Array) Fill(v byte) {
	if a.Powered() {
		a.dropPending()
	}
	a.checkAccess("Fill", 0, len(a.bits)-1)
	a.gen++
	a.markSnapAll()
	splat := uint64(v) * 0x0101010101010101
	nbytes := a.Bytes()
	nwords := nbytes / 8
	for w := 0; w < nwords; w++ {
		a.bits[w] = splat
	}
	for j := nwords * 8; j < nbytes; j++ { // tail bytes of a non-multiple-of-8 array
		a.storeByte(j, v)
	}
}

// invalMasks is the one word transform an array can record on pending
// pages: a word with a bit of valid set loses the bits of drop (valid
// included, so a repeat is a no-op). The zero value changes nothing.
type invalMasks struct{ valid, drop uint64 }

// apply transforms words in place and reports whether any changed.
func (x invalMasks) apply(words []uint64) bool {
	changed := false
	for i, w := range words {
		if w&x.valid != 0 {
			words[i] = w &^ x.drop
			changed = true
		}
	}
	return changed
}

// InvalidateWords clears the valid and dirty bits of every 64-bit word
// that has a valid bit set: a cache's invalidate-all over its tag RAM.
// A word that is not valid keeps its dirty bit, as the hardware's does.
// Drawn pages change at once. Pages of a pending resample are not drawn:
// the transform is recorded and applied as each page is drawn, so an
// invalidate at boot costs nothing for the tag pages no trial reads. An
// array already pending a different transform draws its pending pages
// first.
func (a *Array) InvalidateWords(valid, dirty uint64) {
	if !a.Powered() {
		a.panicUnpowered("InvalidateWords")
	}
	x := invalMasks{valid: valid, drop: valid | dirty}
	if a.pending && a.pendInval != x && a.pendInval != (invalMasks{}) {
		a.materialize(0, len(a.bits)-1)
	}
	if a.pending {
		a.pendInval = x
	}
	a.gen++
	for p, np := 0, a.pages(); p < np; p++ {
		if a.pending && a.pagePending(p) {
			continue
		}
		w0 := p << snapPageShift
		if x.apply(a.bits[w0:min(w0+snapPageWords, len(a.bits))]) {
			a.markSnapPages(w0, w0)
		}
	}
}

// Gen returns the monotonic content-generation counter: it advances on
// every write and on every physics event (fingerprint power-up, decay
// resolution) that can change the array’s contents. A matching stamp
// guarantees the content a consumer cached from this array is still
// exactly what the array holds.
func (a *Array) Gen() uint64 { return a.gen }

// Snapshot returns the full content of the array as bytes. It is the
// simulation-level equivalent of a perfect physical readout and is used
// by experiments to compute ground truth; attack code goes through the
// architectural interfaces instead.
func (a *Array) Snapshot() []byte {
	out := make([]byte, a.Bytes())
	a.SnapshotInto(out)
	return out
}

// SnapshotInto is the allocation-free form of Snapshot: it copies the
// first len(dst) bytes of the array into dst word-at-a-time, so sweep
// loops that fingerprint an array per trial can reuse one buffer instead
// of allocating a fresh image each time.
//
//voltvet:hotpath root
func (a *Array) SnapshotInto(dst []byte) {
	a.ReadBytesInto(0, dst)
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
