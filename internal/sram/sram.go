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
// ticked; a power event that resamples the whole array is deferred until
// something reads it (see kernels.go); and per-cell silicon properties
// (DRV, retention multiplier, power-up bias) are derived on demand from a
// per-cell hash instead of being stored, so an array costs one bit of
// memory per cell. The hash-derived normals use an Irwin–Hall (sum of
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

// RetentionModel is the set of physical constants governing cell decay and
// power-up behaviour. The defaults (DefaultRetentionModel) are calibrated
// against the paper's §3 measurements and the low-temperature SRAM
// remanence literature it cites.
type RetentionModel struct {
	// NominalDRV is the mean data retention voltage in volts. A rail at or
	// above a cell's DRV retains data indefinitely.
	NominalDRV float64
	// DRVSigma is the per-cell standard deviation of DRV (process
	// variation), in volts.
	DRVSigma float64
	// MedianRetention300K is the median intrinsic retention time at 300 K
	// once the rail is below DRV.
	MedianRetention300K sim.Time
	// ActivationK is the Arrhenius activation term Eₐ/k in Kelvin; the
	// median retention scales as exp(ActivationK·(1/T − 1/300)).
	ActivationK float64
	// RetentionSigma is the lognormal shape parameter of per-cell
	// retention times.
	RetentionSigma float64
	// NeutralFraction is the fraction of cells with no power-up
	// preference; the remainder power up to a fixed preferred value with
	// probability 1−BiasNoise.
	NeutralFraction float64
	// BiasNoise is the probability that a biased cell powers up against
	// its preference.
	BiasNoise float64
}

// DefaultRetentionModel returns constants calibrated so that
//
//   - at −110 °C the median retention is ≈60 ms (≈85 % of cells survive a
//     20 ms power-off, matching the ~80 % reported by the remanence
//     studies the paper cites),
//   - at −40 °C the median is ≈200 µs (a multi-millisecond power cycle
//     retains essentially nothing — Table 1),
//   - at room temperature the median is ≈10 µs,
//   - two power-ups of the same array differ by ≈0.10 fractional HD
//     (Table 1 caption).
func DefaultRetentionModel() RetentionModel {
	return RetentionModel{
		NominalDRV:          0.30,
		DRVSigma:            0.04,
		MedianRetention300K: 10 * sim.Microsecond,
		ActivationK:         3093,
		RetentionSigma:      1.0,
		NeutralFraction:     0.20,
		BiasNoise:           0.02,
	}
}

// MedianRetentionAt returns the median intrinsic retention time at the
// given temperature in Kelvin.
func (m RetentionModel) MedianRetentionAt(kelvin float64) sim.Time {
	if kelvin <= 0 {
		panic("sram: non-positive absolute temperature")
	}
	scale := math.Exp(m.ActivationK * (1/kelvin - 1.0/300.0))
	return sim.Time(float64(m.MedianRetention300K) * scale)
}

// RetentionThreshold is the rail voltage above which every cell in the
// population retains (mean DRV plus three sigma).
func (m RetentionModel) RetentionThreshold() float64 {
	return m.NominalDRV + 3*m.DRVSigma
}

// Array is one physical SRAM macro: a set of bits sharing a supply rail.
// Cache data RAMs, tag RAMs, register files, and iRAMs are all Arrays of
// different sizes.
type Array struct {
	name string
	//voltvet:nosnap shared simulation clock; owned by the environment and rewound by the SoC snapshot (now/tempC)
	env   *sim.Env
	model RetentionModel
	// rng drives the irreproducible noise (metastable power-up cells);
	// cellSeed drives the reproducible silicon lottery.
	rng      *xrand.Rand
	cellSeed uint64

	// bits is the current logical content, valid only when powered.
	bits []uint64 // bit-packed, len = ceil(n/64)
	n    int      // number of bits

	// retThreshold caches model.RetentionThreshold() at construction so
	// the per-access Powered()/checkAccess test is one float compare
	// instead of a multiply-add per call. The model is immutable after
	// NewArray, so the cache can never go stale.
	retThreshold float64

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
	// imprint is the lazily allocated aging overlay (see imprint.go).
	imprint *imprintState
	// pending marks contents that are a deferred full power-up resample:
	// the power event recorded the rng stream position its draws start
	// at in pendFrom and jumped the rng past them, leaving bits stale.
	// The first reader replays the draws (materialize); a whole-array
	// overwrite drops the resample unread. See kernels.go.
	pending  bool
	pendFrom xrand.State
	// snapDirty, when non-nil, is the armed copy-on-write page table:
	// one bit per snapPageWords-word page, set by every write path that
	// can change the page since the owning snapshot was captured (see
	// snapshot.go). snapOwner identifies the snapshot the bitmap tracks
	// against. Derived state, not physics.
	snapDirty []uint64
	snapOwner *ArraySnapshot
	// scalarKernels forces the per-bit reference kernels instead of the
	// word-vectorized ones. Both produce bit-identical state and consume
	// the rng stream identically; the flag exists so the differential
	// tests in kernels_test.go can exercise the reference path. See
	// kernels.go.
	scalarKernels bool
}

// NewArray builds an array of n bits named name. The per-cell silicon
// properties are derived deterministically from seed, so the same seed
// always yields the same chip. The array starts unpowered.
func NewArray(env *sim.Env, name string, n int, model RetentionModel, seed uint64) *Array {
	if n <= 0 {
		panic("sram: array size must be positive")
	}
	derived := xrand.Derive(seed, "sram:"+name)
	return &Array{
		name:         name,
		env:          env,
		model:        model,
		rng:          derived,
		cellSeed:     derived.Uint64(),
		bits:         make([]uint64, (n+63)/64),
		n:            n,
		retThreshold: model.RetentionThreshold(),
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
	drv = a.model.NominalDRV + a.model.DRVSigma*ihNormal(h1)
	if drv < 0.05 {
		drv = 0.05
	}
	logRetention = a.model.RetentionSigma * ihNormal(h2)
	// Use untouched high-entropy bits of a third output for the discrete
	// properties so they are independent of the normals above.
	h3 := xrand.SplitMix64(&st)
	biased = float64(h3&0xFFFFFF)/float64(1<<24) >= a.model.NeutralFraction
	preferred = h3>>63 == 1
	return drv, logRetention, biased, preferred
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
	return a.railVolts >= a.retThreshold
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

	threshold := a.retThreshold
	wasUp := prev >= threshold
	isUp := volts >= threshold

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

// checkAccess panics on an unpowered array and materializes a pending
// resample, so every architectural reader and partial writer sees the
// bits the power event drew. The pending test is the whole cost on the
// step path.
func (a *Array) checkAccess(op string) {
	if !a.Powered() {
		panic(fmt.Sprintf("sram: %s on unpowered array %s (rail %.2fV)", op, a.name, a.railVolts))
	}
	if a.pending {
		a.materialize()
	}
}

// WriteBit stores one bit. Accessing an unpowered array is a programming
// error (real hardware cannot either) and panics.
func (a *Array) WriteBit(i int, v bool) {
	a.checkAccess("WriteBit")
	a.gen++
	a.markSnapPages(i>>6, i>>6)
	a.setBit(i, v)
}

// ReadBit loads one bit.
func (a *Array) ReadBit(i int) bool {
	a.checkAccess("ReadBit")
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
		a.pending = false
	}
	a.checkAccess("WriteBytes")
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
	a.checkAccess("ReadBytes")
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
	a.checkAccess("WriteUint64")
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
		a.materialize()
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
	a.checkAccess("ReadUint64")
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
	a.checkAccess("WriteUintN")
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
	a.checkAccess("ReadUintN")
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
	a.checkAccess("ReadBytesInto")
	n := len(dst)
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
		a.pending = false
	}
	a.checkAccess("Fill")
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
	a.checkAccess("FractionOnes")
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
