// Package dram models dynamic RAM at the granularity cold boot attacks
// care about: per-cell capacitor charge that decays toward a fixed ground
// state when refresh stops, with strongly temperature-dependent retention.
//
// The model exists to reproduce the paper's *contrast* experiments: the
// classic Halderman-style cold boot attack works against DRAM because
//
//   - retention times are seconds at room temperature and minutes below
//     −50 °C (orders of magnitude beyond SRAM's, thanks to the much larger
//     storage capacitance),
//   - decay is unidirectional toward a per-cell ground state (cells are
//     physically "true" or "anti" depending on bank wiring, so memory
//     decays in blocks toward all-0 or all-1), which makes partial images
//     correctable — unlike bistable SRAM (§5.1, §9.2).
//
// A Module stores only the 4 KiB pages something has written: an absent
// page reads as its ground pattern, so a freshly powered module costs
// one page table, however large it is, and a simulated SoC pays memory
// and time for the pages its code and data touch. Pages are shared
// copy-on-write with snapshots (see snapshot.go).
//
// A Module may be wrapped in a Scrambler, modelling the DDR3/DDR4
// session-key scrambling that modern memory controllers apply (§2.2,
// §9.1): the array then stores data XORed with a keystream derived from a
// per-boot key, so a physically extracted image is useless without the
// key.
package dram

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// RetentionModel holds the decay constants for a DRAM die.
type RetentionModel struct {
	// MedianRetention300K is the median time an unrefreshed, unpowered
	// cell holds its charge at 300 K.
	MedianRetention300K sim.Time
	// ActivationK is the Arrhenius Eₐ/k term in Kelvin.
	ActivationK float64
	// RetentionSigma is the lognormal shape of per-cell retention.
	RetentionSigma float64
	// GroundBlockBytes is the size of the alternating true-/anti-cell
	// regions: even blocks decay toward 0x00, odd blocks toward 0xFF.
	GroundBlockBytes int
}

// DefaultRetentionModel is calibrated to the cold boot literature: a few
// seconds of median retention at room temperature, minutes below −50 °C.
func DefaultRetentionModel() RetentionModel {
	return RetentionModel{
		MedianRetention300K: 3 * sim.Second,
		ActivationK:         5000,
		RetentionSigma:      1.0,
		GroundBlockBytes:    64 * 1024,
	}
}

// MedianRetentionAt returns the median retention time at the given
// absolute temperature.
func (m RetentionModel) MedianRetentionAt(kelvin float64) sim.Time {
	if kelvin <= 0 {
		panic("dram: non-positive absolute temperature")
	}
	scale := math.Exp(m.ActivationK * (1/kelvin - 1.0/300.0))
	return sim.Time(float64(m.MedianRetention300K) * scale)
}

// Module is one DRAM device (or rank): a byte array with decay physics,
// held as a table of the pages written so far.
type Module struct {
	name string
	//voltvet:nosnap shared simulation clock; owned by the environment and rewound by the SoC snapshot (now/tempC)
	env   *sim.Env
	model RetentionModel
	size  int

	// pages[p] holds bytes [p·pageBytes, (p+1)·pageBytes); nil means
	// every byte of the page holds its ground value. The first write to
	// an absent page allocates it.
	pages []*page
	// owned has bit p set when this module allocated or copied pages[p]
	// since the last capture or restore: no snapshot shares the page, so
	// writes land in place. A present page with a clear bit is shared
	// with a snapshot, and its first write copies it. Restores put back
	// exactly the owned pages.
	owned []uint64
	// spare holds the page buffers restores released, for the next copy
	// or allocation to reuse: a trial that writes the same pages as the
	// last one then allocates nothing.
	//voltvet:nosnap free list of released page buffers; holds no module content
	spare []*page
	// logRetention[c] holds the per-byte retention multipliers, in log
	// space, of retention chunk c: bytes [c·retChunk, (c+1)·retChunk). Byte
	// granularity (rather than bit) keeps 1 GB modules tractable and loses
	// nothing: the attack statistics operate on error fractions far above
	// the within-byte correlation this introduces.
	//
	// The table is write-once. Chunk c is drawn — allocated and filled by
	// FillNormFloat32 from the module's retention stream at retCkpt[c] —
	// the first time a resolution reads the retention of one of its
	// bytes, and never changes afterwards: the values are a pure function
	// of the module seed, identical to one eager in-order fill of the
	// whole module. A resolution reads a byte's retention only when the
	// byte differs from its ground value (decay toward ground leaves a
	// ground byte unchanged), so most simulated SoCs never draw any of
	// it: their outages are zero-length, or, as in the Volt Boot flow,
	// every byte the post-outage code reads before writing it — the
	// payload's write-allocate line fills of the never-written dump
	// region — already holds its ground value. Chunks below a drawn one
	// are skipped, not drawn (see drawRetChunk).
	//voltvet:nosnap write-once table, a pure function of the module seed drawn from its own stream checkpoints; a restore has nothing to rewind
	logRetention [][]float32
	// retCkpt[c] is the retention stream's position (xoshiro state plus
	// the polar method's spare carry) at the first byte of chunk c, known
	// for every chunk up to the furthest one drawn or skipped.
	//voltvet:nosnap write-once stream checkpoints, pure functions of the module seed; a restore has nothing to rewind
	retCkpt []xrand.State
	// retDrawn counts drawn chunks, and minLogRet/maxLogRet bound the
	// values drawn so far. The bounds certify module-wide facts — an
	// outage too short to decay any byte, or one that outlives every byte —
	// only once every chunk is drawn.
	//voltvet:nosnap grows with the write-once table it counts; a restore has nothing to rewind
	retDrawn int
	//voltvet:nosnap bound over the write-once table; a restore has nothing to rewind
	minLogRet float32
	//voltvet:nosnap bound over the write-once table; a restore has nothing to rewind
	maxLogRet float32

	powered bool
	// offSince/offTempK track the current unpowered interval.
	offSince sim.Time
	offTempK float64

	// Lazy outage resolution. PowerOn after a non-trivial outage does not
	// walk the array: it records the outage's decay thresholds here and
	// marks every byte unresolved. A byte materializes its post-outage
	// value on first read (resolveRange); a write resolves it by
	// overwriting (markRange) — decay decided against a value that is
	// about to be overwritten is unobservable. The attack's hot loop
	// (power cycle, boot a payload, dump regions the payload just wrote)
	// reads logRetention only where a line fill or a dump read lands on a
	// non-ground byte no write has retired: the payload's write-allocate
	// line fills of the dump region find it at ground and read none.
	// resolved == nil means no outage is pending and every byte is
	// materialized.
	resolved   []uint64 // per-byte bitmap, 1 = materialized
	unresolved int      // count of zero bits in resolved
	outage     pendingOutage

	// snapOwner is the snapshot whose page table the unowned pages share
	// (see snapshot.go).
	snapOwner *ModuleSnapshot
}

// pageBytes is the page-table granularity: allocation and copy-on-write
// sharing both work in whole pages. Trial writes (payload loads, staged
// victim data, dump regions) are contiguous runs, so a trial touches few
// pages.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1
)

// page is one page of module bytes.
type page [pageBytes]byte

// pendingOutage is a power-off interval whose per-byte decay resolution
// has been deferred. su/sl are the float32-space survival thresholds
// (see leastFloat32Satisfying) and elapsed/median feed the exact
// in-band recheck — together they decide each byte identically to the
// eager walk PowerOn used to run.
type pendingOutage struct {
	su, sl  float32
	elapsed float64
	median  float64
}

// NewModule creates a DRAM module of size bytes. It starts powered with
// ground-state contents (a freshly powered DRAM reads as its ground
// pattern).
func NewModule(env *sim.Env, name string, size int, model RetentionModel, seed uint64) *Module {
	if size <= 0 {
		panic("dram: module size must be positive")
	}
	npages := (size + pageMask) >> pageShift
	return &Module{
		name:         name,
		env:          env,
		model:        model,
		size:         size,
		pages:        make([]*page, npages),
		owned:        make([]uint64, (npages+63)/64),
		logRetention: make([][]float32, (size+retChunk-1)>>retChunkShift),
		retCkpt:      []xrand.State{xrand.Derive(seed, "dram:"+name).State()},
		minLogRet:    float32(math.Inf(1)),
		maxLogRet:    float32(math.Inf(-1)),
		powered:      true,
	}
}

// retChunk is the granularity of the retention table: coarse enough that
// a burst of nearby line resolutions pays one draw batch, fine enough that
// a dump region at 2 MB doesn't drag in the whole module.
const (
	retChunkShift = 18
	retChunk      = 1 << retChunkShift // 256 KiB
)

// drawRetChunk draws chunk c. The stream runs through the chunks in byte
// order, so reaching chunk c's checkpoint first advances past every chunk
// between the furthest checkpoint and c with SkipNormFloat32 — the exact
// stream position a fill would leave, with no Log or Sqrt per value —
// recording each chunk's checkpoint so a skipped chunk can still be drawn
// later. The draw itself starts from c's checkpoint and records c+1's.
func (m *Module) drawRetChunk(c int) {
	var r xrand.Rand
	if k := len(m.retCkpt) - 1; k < c {
		r.SetState(m.retCkpt[k])
		for ; k < c; k++ {
			r.SkipNormFloat32(m.retChunkLen(k))
			m.retCkpt = append(m.retCkpt, r.State())
		}
	}
	r.SetState(m.retCkpt[c])
	chunk := make([]float32, m.retChunkLen(c))
	r.FillNormFloat32(chunk, m.model.RetentionSigma)
	if c+1 == len(m.retCkpt) && c+1 < len(m.logRetention) {
		m.retCkpt = append(m.retCkpt, r.State())
	}
	for _, lr := range chunk {
		if lr < m.minLogRet {
			m.minLogRet = lr
		}
		if lr > m.maxLogRet {
			m.maxLogRet = lr
		}
	}
	m.logRetention[c] = chunk
	m.retDrawn++
}

// retChunkLen is the byte count of chunk c (the last may be short).
func (m *Module) retChunkLen(c int) int {
	return min(retChunk, m.size-(c<<retChunkShift))
}

// fillGround writes the ground pattern for byte offsets [off, off+len(dst))
// into dst, one block at a time instead of a per-byte block-index division.
func (m *Module) fillGround(dst []byte, off int) {
	g := m.model.GroundBlockBytes
	for len(dst) > 0 {
		n := g - off%g // bytes left in the current block
		if n > len(dst) {
			n = len(dst)
		}
		if (off/g)%2 == 1 {
			for i := 0; i < n; i++ {
				dst[i] = 0xFF
			}
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0x00
			}
		}
		dst = dst[n:]
		off += n
	}
}

// writable returns page p ready for an in-place write: an owned page as
// it is, otherwise a private copy of the shared page (or of the ground
// pattern, for an absent one) that the module now owns.
func (m *Module) writable(p int) *page {
	if m.owned[p>>6]&(1<<(uint(p)&63)) != 0 {
		return m.pages[p]
	}
	var pg *page
	if n := len(m.spare); n > 0 {
		pg, m.spare = m.spare[n-1], m.spare[:n-1]
	} else {
		pg = new(page)
	}
	if src := m.pages[p]; src != nil {
		*pg = *src
	} else {
		m.fillGround(pg[:], p<<pageShift)
	}
	m.pages[p] = pg
	m.owned[p>>6] |= 1 << (uint(p) & 63)
	return pg
}

// readInto copies bytes [off, off+len(dst)) into dst, page by page.
func (m *Module) readInto(off int, dst []byte) {
	for len(dst) > 0 {
		n := min(len(dst), pageBytes-off&pageMask)
		if pg := m.pages[off>>pageShift]; pg != nil {
			copy(dst[:n], pg[off&pageMask:])
		} else {
			m.fillGround(dst[:n], off)
		}
		dst = dst[n:]
		off += n
	}
}

// writeFrom copies b into bytes [off, off+len(b)), page by page.
func (m *Module) writeFrom(off int, b []byte) {
	for len(b) > 0 {
		n := min(len(b), pageBytes-off&pageMask)
		copy(m.writable(off >> pageShift)[off&pageMask:], b[:n])
		b = b[n:]
		off += n
	}
}

// Name returns the module name.
func (m *Module) Name() string { return m.name }

// Size returns the module capacity in bytes.
func (m *Module) Size() int { return m.size }

// Powered reports whether the module is receiving power (and refresh).
func (m *Module) Powered() bool { return m.powered }

// groundByte is the value byte i decays toward.
func (m *Module) groundByte(i int) byte {
	if (i/m.model.GroundBlockBytes)%2 == 1 {
		return 0xFF
	}
	return 0x00
}

// PowerOff stops power and refresh at the current simulation time and
// temperature. Subsequent PowerOn resolves decay over the interval.
func (m *Module) PowerOff() {
	if !m.powered {
		return
	}
	// A back-to-back outage with no intervening read of some bytes: finish
	// the previous outage's deferred resolution first, so at most one
	// outage is ever pending and each one applies to the byte values that
	// were current when it began.
	m.resolveAll()
	m.powered = false
	m.offSince = m.env.Now()
	m.offTempK = m.env.TemperatureK()
	m.env.Logf("dram", "%s power off at %.1f°C", m.name, m.env.TemperatureC()) //voltvet:ignore VV-HOT004 diagnostic logging on a power transition, not the per-instruction steady state; campaigns attach no log
}

// PowerOn restores power, resolving which bytes decayed to ground during
// the outage. Bytes whose personal retention time exceeds the outage
// survive intact — the cold boot attack's entire premise.
//
// The per-byte predicate is elapsed ≥ median·exp(lr). Working in log
// space — lr against ln(elapsed/median) — replaces the per-byte Exp with
// one float compare. Classification uses a ±1e-9 safety band, eight
// orders of magnitude above the compounded rounding error of the
// Log/divide, and the rare bytes falling inside the band are re-decided
// with the exact original expression, so outcomes are bit-identical to
// the per-byte Exp loop. The module-wide retention bounds captured at
// construction short-circuit the common attack case (a millisecond-scale
// cycle that no DRAM byte can lose) to O(1).
func (m *Module) PowerOn() {
	if m.powered {
		return
	}
	m.powered = true
	elapsed := float64(m.env.Now() - m.offSince)
	median := float64(m.model.MedianRetentionAt(m.offTempK))
	// Degenerate medians fall out of the float semantics: median 0 gives
	// logEl = +Inf (everything decays, as the original comparison against
	// retention 0 did) or NaN when elapsed is also 0 (all comparisons
	// false, again decaying everything).
	logEl := math.Log(elapsed / median)
	const band = 1e-9
	if math.IsInf(logEl, -1) {
		// Zero-length outage (or one vanishingly short next to the median):
		// no byte's elapsed ≥ median·exp(lr) predicate can fire, so skip
		// even the lazy retention fill. The original per-byte loop and the
		// minLogRet short-circuit both reach this same conclusion, since
		// every finite lr exceeds −∞.
		m.env.Logf("dram", "%s power on: 0/%d bytes decayed to ground", m.name, m.size) //voltvet:ignore VV-HOT004 diagnostic logging on a power transition, not the per-instruction steady state; campaigns attach no log
		return
	}
	if m.retDrawn == len(m.logRetention) && float64(m.minLogRet) > logEl+band {
		// The retention table is complete and certifies that even the
		// leakiest byte outlives the outage: nothing decays, no deferral
		// needed. (Without a full table the same conclusion is reached
		// lazily — see resolveSlow — without forcing the draws here.)
		m.env.Logf("dram", "%s power on: 0/%d bytes decayed to ground", m.name, m.size) //voltvet:ignore VV-HOT004 diagnostic logging on a power transition, not the per-instruction steady state; campaigns attach no log
		return
	}
	// Defer the walk: record the outage's survival thresholds and mark
	// every byte unresolved. The float64 thresholds are translated once
	// into exact float32-space equivalents — the set {lr : float64(lr) > hi}
	// is an upward-closed set of float32 values, so it equals {lr : lr ≥ su}
	// for the least float32 su above hi — and resolution then compares the
	// stored float32 directly. Both predicates decide identically to the
	// float64 forms for every possible lr, including NaN thresholds (no
	// byte survives, as before).
	lo, hi := logEl-band, logEl+band
	m.outage = pendingOutage{
		su:      leastFloat32Satisfying(hi, false), // lr >= su  ⟺  float64(lr) >  hi
		sl:      leastFloat32Satisfying(lo, true),  // lr >= sl  ⟺  float64(lr) >= lo
		elapsed: elapsed,
		median:  median,
	}
	words := (m.size + 63) / 64
	if m.resolved == nil {
		m.resolved = make([]uint64, words)
	} else {
		clear(m.resolved)
	}
	m.unresolved = m.size
	m.env.Logf("dram", "%s power on after %s outage: decay resolution deferred (%d bytes)",
		m.name, sim.Time(elapsed), m.size) //voltvet:ignore VV-HOT004 diagnostic logging on a power transition, not the per-instruction steady state; campaigns attach no log
}

// dropPending releases the deferral state once every byte is materialized.
func (m *Module) dropPending() {
	m.resolved = nil
	m.unresolved = 0
}

// resolveAll materializes every still-unresolved byte (the eager walk the
// deferral postponed), used before a new outage begins.
func (m *Module) resolveAll() {
	if m.resolved != nil {
		m.resolveSlow(0, m.size)
	}
}

// resolveRange guarantees bytes [off, off+n) are materialized before a
// read observes them. The fast path — no outage pending, or the covering
// bitmap words fully set — is a handful of loads; only genuinely
// unresolved neighborhoods fall through to the walk.
func (m *Module) resolveRange(off, n int) {
	if m.resolved == nil || n <= 0 {
		return
	}
	for w, last := off>>6, (off+n-1)>>6; w <= last; w++ {
		if m.resolved[w] != ^uint64(0) {
			m.resolveSlow(off, n)
			return
		}
	}
}

// resolveSlow decides decay for every unresolved byte of [off, off+n)
// against the pending outage, exactly as the eager walk would have: the
// two float32 threshold compares, then the exact in-band recheck. A byte
// already at its ground value resolves without a decision — decayed or
// not, it reads the same — so its retention is never read, and an absent
// page resolves whole. The module-wide retention bounds collapse the two
// extreme outages first — a no-decay outage drops the whole deferral, a
// total-decay one (the Volt Boot power cycle) restores ground without
// touching logRetention. Only a byte that actually decays writes, so
// only the pages holding one are copied away from a snapshot.
func (m *Module) resolveSlow(off, n int) {
	o := &m.outage
	// The module-wide certificates need the complete table; with a partial
	// one the per-byte predicate below decides each byte identically, just
	// without the wholesale shortcuts.
	full := m.retDrawn == len(m.logRetention)
	if full && m.minLogRet >= o.su {
		// Even the leakiest byte outlives the outage: every unresolved byte
		// already holds its surviving value. Drop the deferral wholesale.
		m.dropPending()
		return
	}
	fullDecay := full && !(m.maxLogRet >= o.sl) // maxLogRet strictly below the band
	for i, end := off, off+n; i < end; {
		p := i >> pageShift
		pend := min(end, (p+1)<<pageShift)
		pg := m.pages[p]
		if pg == nil {
			m.setResolved(i, pend)
			i = pend
			continue
		}
		for ; i < pend; i++ {
			w, bit := i>>6, uint64(1)<<uint(i&63)
			if m.resolved[w]&bit != 0 {
				continue
			}
			if g := m.groundByte(i); pg[i&pageMask] != g {
				decays := fullDecay
				if !fullDecay {
					// Draw only the retention chunks a decision reads.
					c := i >> retChunkShift
					if m.logRetention[c] == nil {
						m.drawRetChunk(c)
					}
					lr := m.logRetention[c][i&(retChunk-1)]
					decays = lr < o.su && !(lr >= o.sl && o.elapsed < o.median*math.Exp(float64(lr)))
				}
				if decays {
					pg = m.writable(p)
					pg[i&pageMask] = g
				}
			}
			m.resolved[w] |= bit
			m.unresolved--
		}
	}
	if m.unresolved == 0 {
		m.dropPending()
	}
}

// markRange records that bytes [off, off+n) were overwritten: whatever
// decay the pending outage would have resolved them to is dead state.
func (m *Module) markRange(off, n int) {
	if m.resolved == nil || n <= 0 {
		return
	}
	m.setResolved(off, off+n)
	if m.unresolved == 0 {
		m.dropPending()
	}
}

// setResolved marks bytes [i, end) materialized. A full bitmap word (a
// 64-byte aligned line, or the middle of a larger range) is retired with
// one store.
func (m *Module) setResolved(i, end int) {
	for ; i < end && i&63 != 0; i++ { // head: reach word alignment
		w, bit := i>>6, uint64(1)<<uint(i&63)
		if m.resolved[w]&bit == 0 {
			m.resolved[w] |= bit
			m.unresolved--
		}
	}
	for ; i+64 <= end; i += 64 { // middle: whole bitmap words
		if v := m.resolved[i>>6]; v != ^uint64(0) {
			m.unresolved -= 64 - bits.OnesCount64(v)
			m.resolved[i>>6] = ^uint64(0)
		}
	}
	for ; i < end; i++ { // tail
		w, bit := i>>6, uint64(1)<<uint(i&63)
		if m.resolved[w]&bit == 0 {
			m.resolved[w] |= bit
			m.unresolved--
		}
	}
}

// leastFloat32Satisfying returns the least float32 s such that
// float64(s) > t (strict) or float64(s) >= t (orEqual). Because the
// float32→float64 embedding is exact and order-preserving, comparing a
// stored float32 against s with >= decides the float64 predicate
// bit-identically for every finite, infinite, or NaN input. A NaN or +Inf
// threshold has no finite satisfying value; returning +Inf (respectively
// NaN→+Inf) makes lr >= s false for every finite lr, matching the float64
// comparison's outcome.
func leastFloat32Satisfying(t float64, orEqual bool) float32 {
	sat := func(s float32) bool { //voltvet:ignore VV-HOT003 non-escaping predicate closure: the search helper only invokes it, so it stays on the stack
		if orEqual {
			return float64(s) >= t
		}
		return float64(s) > t
	}
	if math.IsNaN(t) || (math.IsInf(t, 1) && !orEqual) {
		return float32(math.NaN()) // no float32 satisfies; lr >= NaN is false for every lr
	}
	s := float32(t) // nearest float32; at most a few ULPs from the answer
	for !sat(s) {
		s = math.Nextafter32(s, float32(math.Inf(1)))
	}
	for {
		d := math.Nextafter32(s, float32(math.Inf(-1)))
		if d == s || !sat(d) {
			break
		}
		s = d
	}
	return s
}

func (m *Module) check(op string, off, n int) {
	if !m.powered {
		panic(fmt.Sprintf("dram: %s on unpowered module %s", op, m.name))
	}
	if off < 0 || n < 0 || off+n > m.size {
		panic(fmt.Sprintf("dram: %s out of range on %s: off=%d n=%d size=%d", op, m.name, off, n, m.size))
	}
}

// Write stores b at offset off.
func (m *Module) Write(off int, b []byte) {
	m.check("Write", off, len(b))
	m.markRange(off, len(b))
	m.writeFrom(off, b)
}

// WriteUintN stores the low size bytes of v little-endian at offset off,
// 1 ≤ size ≤ 8 — the allocation-free subword store the SoC uses when no
// cache sits between the core and the module.
func (m *Module) WriteUintN(off, size int, v uint64) {
	m.check("WriteUintN", off, size)
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("dram: WriteUintN size %d out of range on %s", size, m.name))
	}
	m.markRange(off, size)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.writeFrom(off, b[:size])
}

// ReadUintN loads size bytes little-endian from offset off, 1 ≤ size ≤ 8,
// without allocating.
func (m *Module) ReadUintN(off, size int) uint64 {
	m.check("ReadUintN", off, size)
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("dram: ReadUintN size %d out of range on %s", size, m.name))
	}
	m.resolveRange(off, size)
	var b [8]byte
	m.readInto(off, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// Read returns n bytes from offset off.
func (m *Module) Read(off, n int) []byte {
	m.check("Read", off, n)
	m.resolveRange(off, n)
	out := make([]byte, n)
	m.readInto(off, out)
	return out
}

// ReadLine implements the cache.Backing contract for line fills.
func (m *Module) ReadLine(addr uint64, buf []byte) error {
	if !m.powered {
		return fmt.Errorf("dram: %s is unpowered", m.name)
	}
	if addr+uint64(len(buf)) > uint64(m.size) {
		return fmt.Errorf("dram: %s read at %#x+%d out of range", m.name, addr, len(buf))
	}
	m.resolveRange(int(addr), len(buf))
	m.readInto(int(addr), buf)
	return nil
}

// WriteLine implements the cache.Backing contract for writebacks.
func (m *Module) WriteLine(addr uint64, buf []byte) error {
	if !m.powered {
		return fmt.Errorf("dram: %s is unpowered", m.name)
	}
	if addr+uint64(len(buf)) > uint64(m.size) {
		return fmt.Errorf("dram: %s write at %#x+%d out of range", m.name, addr, len(buf))
	}
	m.markRange(int(addr), len(buf))
	m.writeFrom(int(addr), buf)
	return nil
}

// DecayDirectionKnown reports, for byte offset i, the value the byte
// decays toward — the side information a cold boot post-processor uses
// for error correction.
func (m *Module) DecayDirectionKnown(i int) byte { return m.groundByte(i) }

// Scrambler wraps a Module with DDR-style data scrambling: every byte is
// XORed with a keystream position derived from a per-boot session key.
// Physically extracting the module's cells yields scrambled data.
type Scrambler struct {
	mod *Module
	key uint64
}

// NewScrambler wraps mod. Call NewBootKey before use.
func NewScrambler(mod *Module) *Scrambler { return &Scrambler{mod: mod} }

// Module returns the underlying physical module (what a cold boot
// attacker rips out and reads).
func (s *Scrambler) Module() *Module { return s.mod }

// NewBootKey draws a fresh session key, as the memory controller does at
// every boot. Data scrambled under a previous key becomes unintelligible.
func (s *Scrambler) NewBootKey(seed uint64) {
	st := seed
	s.key = xrand.SplitMix64(&st)
	s.mod.env.Logf("dram", "%s: new scrambler session key", s.mod.name)
}

func (s *Scrambler) keystream(off, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		pos := uint64(off+i) / 8
		st := s.key ^ pos
		word := xrand.SplitMix64(&st)
		out[i] = byte(word >> (8 * (uint64(off+i) % 8)))
	}
	return out
}

// Write scrambles b and stores it.
func (s *Scrambler) Write(off int, b []byte) {
	ks := s.keystream(off, len(b))
	enc := make([]byte, len(b))
	for i := range b {
		enc[i] = b[i] ^ ks[i]
	}
	s.mod.Write(off, enc)
}

// Read returns descrambled data — what the CPU sees through the
// controller.
func (s *Scrambler) Read(off, n int) []byte {
	enc := s.mod.Read(off, n)
	ks := s.keystream(off, n)
	for i := range enc {
		enc[i] ^= ks[i]
	}
	return enc
}
