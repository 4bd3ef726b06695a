// Package cache models set-associative caches whose tag and data storage
// are real sram.Array instances, so cache contents obey the same
// power/retention physics as every other on-chip memory.
//
// The model preserves the architectural properties the Volt Boot paper
// leans on (§5.2.4, §6.1, §7.1):
//
//   - Clean/invalidate operations touch only the state bits in the tag
//     RAM; the data RAM is never erased. The only architectural way to
//     overwrite L1 data RAM is DC ZVA (or ordinary stores).
//   - The RAMINDEX debug interface reads tag and data RAMs directly,
//     bypassing hit/miss logic and valid bits — retained garbage, secrets
//     and all.
//   - Caches are software-enabled: until enabled, accesses bypass to the
//     next level and the RAM contents stay whatever power-up or retention
//     left there.
//   - Lines carry a TrustZone NS bit; secure lines can be barred from
//     non-secure RAMINDEX reads (one of the §8 countermeasures).
//   - Ways can be locked (CaSE-style cache-as-RAM), excluding them from
//     eviction.
package cache

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/sram"
)

// Backing is the next level in the memory hierarchy (an outer cache or
// the memory system), accessed at line granularity.
type Backing interface {
	// ReadLine fills buf with the line at the aligned address addr.
	ReadLine(addr uint64, buf []byte) error
	// WriteLine writes buf back to the aligned address addr.
	WriteLine(addr uint64, buf []byte) error
}

// Config fixes a cache's geometry.
type Config struct {
	// Name identifies the cache in logs and RAMINDEX maps, e.g.
	// "core0.L1D".
	Name string
	// SizeBytes is the total data capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size.
	LineBytes int
	// InlineECC marks data RAMs that store each 32-bit word interleaved
	// with its ECC bits in an undocumented order (the Cortex-A53 i-cache,
	// paper footnote 4). Architectural reads are transparent — hardware
	// decodes — but the raw RAMINDEX view differs from the plain machine
	// code, so extractions can only be scored by before/after comparison.
	// Modelled as a deterministic per-word scramble (ECCEncodeWord).
	InlineECC bool
}

// ECCEncodeWord returns the raw data-RAM image of a 32-bit word in an
// InlineECC cache: the word XOR-folded with a parity-derived mask,
// standing in for the undocumented data+ECC interleaving. It is an
// involution-free bijection per word; ECCDecodeWord inverts it.
func ECCEncodeWord(w uint32) uint32 {
	return w ^ eccMask(w)
}

// ECCDecodeWord inverts ECCEncodeWord. The parity nibble appears an even
// number of times in the mask, so the XOR-fold of a stored word equals
// the fold of the original — the mask can be re-derived from the stored
// image directly.
func ECCDecodeWord(stored uint32) uint32 {
	return stored ^ eccMask(stored)
}

// eccMask derives the per-word scramble from parity folds of the word.
func eccMask(w uint32) uint32 {
	p := w ^ w>>16
	p ^= p >> 8
	p ^= p >> 4
	p &= 0xF
	// Replicate the 4-bit parity nibble across the word the way packed
	// ECC fields would sit between data bits.
	return p * 0x10101010
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / c.Ways / c.LineBytes }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.LineBytes%8 != 0 {
		return fmt.Errorf("cache %s: line size must be a multiple of 8", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %s: size not divisible by ways×line", c.Name)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// Tag-RAM entry layout (one 64-bit word per way×set):
//
//	bits [51:0]  tag
//	bit  61      NS (non-secure allocation)
//	bit  62      dirty
//	bit  63      valid
//
// Lock bits are microarchitectural configuration, not SRAM content, and
// live in plain fields.
const (
	tagValidBit = 1 << 63
	tagDirtyBit = 1 << 62
	tagNSBit    = 1 << 61
	tagMask     = 1<<52 - 1
)

// Stats counts cache events since the cache was built (a snapshot
// restore rewinds them with the rest of the cache state).
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Bypasses   uint64
}

// Cache is one set-associative cache level backed by SRAM arrays.
type Cache struct {
	cfg     Config
	sets    int
	backing Backing

	// dataRAM[w] holds sets×LineBytes bytes for way w; the per-way split
	// mirrors how the paper dumps and reports "WAY0"/"WAY1" images.
	//voltvet:nosnap sram.Arrays with their own snapshot pairs, enumerated by the SoC array list
	dataRAM []*sram.Array
	// tagRAM holds one 64-bit entry per (way, set): way-major layout. An
	// sram.Array with its own snapshot pair, enumerated by the SoC array
	// list; the cache's pair reads only its generation (arraysGen).
	tagRAM *sram.Array

	// enabled gates allocation: a disabled cache bypasses to backing
	// without touching the RAMs.
	enabled bool
	// lockedWays[w] excludes way w from replacement (CaSE cache-as-RAM).
	lockedWays []bool
	// lastUse[w][set] is an LRU timestamp. Replacement is true LRU —
	// close enough to the pseudo-LRU of the modelled cores, and the
	// property behind Table 4's shape: background noise evicts its own
	// stale lines until the benchmark's working set fills the cache.
	// This is microarchitectural metadata; its loss across power cycles
	// is irrelevant to the attack, so it lives in plain memory.
	lastUse [][]uint64
	useTick uint64
	// snapFloor is one past the tick of the snapshot the cache tracks
	// (snapOwner), or 0 when it tracks none. Ticks only grow between a
	// capture or restore and the next one, so an entry whose lastUse is
	// below the floor has not been touched since then: touch logs its
	// flat index (way·sets+set) in touched the first time it moves it,
	// and RestoreAux rewinds only the logged entries. Without a snapshot
	// no entry is below 0, and touch logs nothing.
	snapFloor uint64
	touched   []int32
	snapOwner *AuxSnapshot

	// scratch is a reusable LineBytes buffer for fills, writebacks and
	// bypasses, so the hot path never calls make. Like lastUse it is
	// derived state: it holds no architectural content between calls and
	// deliberately lives outside the SRAM retention physics. Reentrancy
	// is safe because each cache level owns its own scratch and every
	// use is complete before the next backing call that could recurse
	// into this cache.
	//voltvet:nosnap reusable fill/writeback buffer; holds no architectural content between calls
	scratch []byte

	// contentGen counts every event that can change what a predecoded
	// fetch through this cache observes: maintenance ops, enable toggles,
	// and fills and data writes into a line a predecoded block was read
	// from in the current generation (see fetchMark). The SoC's
	// superblocks are stamped with this counter (plus its own mutation
	// counter), so any such event invalidates every block served through
	// this cache. LRU touches do not bump it — they change replacement
	// order, not content — which is what lets straight-line loops keep
	// their blocks hot. Monotonic, derived state, never stored in SRAM.
	contentGen uint64
	// fetchMark[way·sets+set] == contentGen+1 marks a line a block was
	// read from since the last contentGen bump (MarkFetched). A block
	// stays valid only while contentGen does not move, so a data write
	// into an unmarked line, or a fill that replaces one, cannot reach
	// the content or residency of any valid block and leaves the
	// generation alone; a write into a marked line, or a fill that
	// evicts one, bumps it. Any bump clears every mark at once, so the
	// stamps never need resetting.
	//voltvet:nosnap epoch stamps against contentGen; a restore that rewinds the cache's arrays bumps contentGen, which clears every mark at once, and one that does not leaves marks of unchanged lines
	fetchMark []uint64
	// syncGen is the sum of the arrays' generations as of the last
	// capture or restore (see RestoreAux).
	syncGen uint64

	// Single-entry way memo: the (tag, set) → way resolution of the most
	// recent hit, stamped with the tag RAM's content generation. While the
	// stamp matches, no tag entry has been written and no physics event has
	// touched the tag array, so the memoised way still holds a valid line
	// with the memoised tag and the Ways-wide tag scan in lookup can be
	// skipped. Any tag write — fill, eviction, maintenance, a first
	// dirty-bit set — or any power/retention event on the tag RAM bumps
	// its generation and retires the memo. Derived state: it resolves to
	// exactly what lookup would return, so it is invisible to replacement
	// order, stats and contents.
	//voltvet:nosnap generation-stamped way memo; RestoreAux empties it (memoWay = -1)
	memoTag uint64
	//voltvet:nosnap generation-stamped way memo; RestoreAux empties it (memoWay = -1)
	memoGen uint64
	//voltvet:nosnap generation-stamped way memo; RestoreAux empties it (memoWay = -1)
	memoSet int32
	//voltvet:nosnap reset to empty (-1) by RestoreAux; the way memo never survives a rewind
	memoWay int32 // -1 when empty

	stats Stats
}

// New builds a cache and its SRAM arrays. The arrays are registered as
// loads on a power domain by the caller (typically soc.Device wiring).
func New(env *sim.Env, cfg Config, seed uint64, backing Backing) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		backing:    backing,
		dataRAM:    make([]*sram.Array, cfg.Ways),
		lockedWays: make([]bool, cfg.Ways),
		lastUse:    make([][]uint64, cfg.Ways),
		scratch:    make([]byte, cfg.LineBytes),
		fetchMark:  make([]uint64, cfg.Ways*sets),
		memoWay:    -1,
	}
	for w := range c.lastUse {
		c.lastUse[w] = make([]uint64, sets)
	}
	for w := range c.dataRAM {
		c.dataRAM[w] = sram.NewArray(env, fmt.Sprintf("%s.data.w%d", cfg.Name, w),
			sets*cfg.LineBytes*8, seed)
	}
	c.tagRAM = sram.NewArray(env, cfg.Name+".tag", cfg.Ways*sets*64, seed)
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Arrays returns every SRAM array the cache owns (for power-domain
// attachment): data ways first, then the tag RAM.
func (c *Cache) Arrays() []*sram.Array {
	out := make([]*sram.Array, 0, len(c.dataRAM)+1)
	out = append(out, c.dataRAM...)
	return append(out, c.tagRAM)
}

// Enabled reports whether the cache allocates.
func (c *Cache) Enabled() bool { return c.enabled }

// SetEnabled turns allocation on or off. Disabling does not flush: that
// is the software's job (and the attacker's opportunity). Toggling
// changes fetch routing, so it invalidates predecoded blocks.
func (c *Cache) SetEnabled(on bool) {
	c.enabled = on
	c.contentGen++
}

// ContentGen returns the monotonic content-generation counter. See the
// field comment; consumers treat any change as "refetch everything".
func (c *Cache) ContentGen() uint64 { return c.contentGen }

// LockWay marks a way as non-evictable.
func (c *Cache) LockWay(w int, locked bool) { c.lockedWays[w] = locked }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (tag uint64, set int, off int) {
	off = int(addr) & (c.cfg.LineBytes - 1)
	set = int(addr/uint64(c.cfg.LineBytes)) & (c.sets - 1)
	tag = addr / uint64(c.cfg.LineBytes) / uint64(c.sets)
	return tag & tagMask, set, off
}

func (c *Cache) tagEntry(way, set int) uint64 {
	return c.tagRAM.ReadUint64((way*c.sets + set) * 8)
}

func (c *Cache) setTagEntry(way, set int, v uint64) {
	c.tagRAM.WriteUint64((way*c.sets+set)*8, v)
}

// lookup returns the hitting way for addr, or -1.
func (c *Cache) lookup(tag uint64, set int) int {
	for w := 0; w < c.cfg.Ways; w++ {
		e := c.tagEntry(w, set)
		if e&tagValidBit != 0 && e&tagMask == tag {
			return w
		}
	}
	return -1
}

// victim picks the way to replace in set, honouring locks. Invalid ways
// win first; otherwise the least recently used unlocked way.
func (c *Cache) victim(set int) (int, error) {
	for w := 0; w < c.cfg.Ways; w++ {
		if c.lockedWays[w] {
			continue
		}
		if c.tagEntry(w, set)&tagValidBit == 0 {
			return w, nil
		}
	}
	best, bestUse := -1, uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.lockedWays[w] {
			continue
		}
		// Strict < keeps the lowest unlocked way on equal timestamps —
		// the tie-break order the replacement tests pin. (Ties only occur
		// for never-touched ways; touch assigns unique ticks.)
		if u := c.lastUse[w][set]; best < 0 || u < bestUse {
			best, bestUse = w, u
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("cache %s: all ways locked in set %d", c.cfg.Name, set)
	}
	return best, nil
}

// touch records a use of (way, set) for LRU, logging the entry for the
// tracked snapshot's restore if this is its first touch since.
func (c *Cache) touch(way, set int) {
	c.useTick++
	lu := &c.lastUse[way][set]
	if *lu < c.snapFloor {
		c.touched = append(c.touched, int32(way*c.sets+set))
	}
	*lu = c.useTick
}

// TouchFetchHit replays the microarchitectural side effects of a hit at
// (way, set) — the hit counter and the LRU touch — without re-reading
// the RAMs. The SoC's superblocks call it for each instruction they run,
// so replacement order and event counters stay bit-identical to the full
// fetch path they short-circuit.
func (c *Cache) TouchFetchHit(way, set int) {
	c.stats.Hits++
	c.touch(way, set)
}

// ResidentWaySet probes, without side effects, whether addr is resident
// and in which (way, set). The SoC's superblock builder reads each block
// word from the answer (FetchWord).
func (c *Cache) ResidentWaySet(addr uint64) (way, set int, ok bool) {
	tag, s, _ := c.index(addr)
	w := c.lookup(tag, s)
	return w, s, w >= 0
}

// FetchWord returns the instruction word at the word-aligned addr in the
// resident line at (way, set), as a 4-byte fetch hit there reads it:
// with inline ECC undone. Unlike Access it counts no hit and touches no
// LRU entry, so the superblock builder can read a block ahead of its
// execution; the block replays each hit with TouchFetchHit as it runs.
func (c *Cache) FetchWord(way, set int, addr uint64) uint32 {
	off := set*c.cfg.LineBytes + int(addr)&(c.cfg.LineBytes-1)
	w := uint32(c.dataRAM[way].ReadUintN(off, 4))
	if c.cfg.InlineECC {
		return ECCDecodeWord(w)
	}
	return w
}

// MarkFetched records that a superblock was read from the line at
// (way, set): until the next content-generation bump, a data write into
// it, or a fill that evicts it, bumps the generation (see fetchMark).
func (c *Cache) MarkFetched(way, set int) {
	c.fetchMark[way*c.sets+set] = c.contentGen + 1
}

// dataWritten accounts for a data write or a fill into (way, set): it
// bumps the content generation only if a superblock was read from the
// line there in the current generation.
func (c *Cache) dataWritten(way, set int) {
	if c.fetchMark[way*c.sets+set] == c.contentGen+1 {
		c.contentGen++
	}
}

func (c *Cache) lineAddr(tag uint64, set int) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) * uint64(c.cfg.LineBytes)
}

// fill brings the line containing addr into (tag,set) and returns the
// way. Dirty victims are written back first.
func (c *Cache) fill(tag uint64, set int, secure bool) (int, error) {
	w, err := c.victim(set)
	if err != nil {
		return 0, err
	}
	if e := c.tagEntry(w, set); e&tagValidBit != 0 && e&tagDirtyBit != 0 {
		victimAddr := c.lineAddr(e&tagMask, set)
		c.dataRAM[w].ReadBytesInto(set*c.cfg.LineBytes, c.scratch)
		if c.cfg.InlineECC {
			eccDecodeLine(c.scratch)
		}
		if err := c.backing.WriteLine(victimAddr, c.scratch); err != nil { //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
			return 0, fmt.Errorf("cache %s: writeback of %#x: %w", c.cfg.Name, victimAddr, err)
		}
		c.stats.Writebacks++
	}
	if c.tagEntry(w, set)&tagValidBit != 0 {
		c.stats.Evictions++
	}
	if err := c.backing.ReadLine(c.lineAddr(tag, set), c.scratch); err != nil { //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
		return 0, fmt.Errorf("cache %s: fill of %#x: %w", c.cfg.Name, c.lineAddr(tag, set), err)
	}
	if c.cfg.InlineECC {
		eccEncodeLine(c.scratch)
	}
	c.dataRAM[w].WriteBytes(set*c.cfg.LineBytes, c.scratch)
	entry := tag | tagValidBit
	if !secure {
		entry |= tagNSBit
	}
	c.setTagEntry(w, set, entry)
	c.dataWritten(w, set)
	return w, nil
}

// Access performs a read or write of size bytes (1–8, not crossing a
// line) at addr. secure is the TrustZone state of the requestor, recorded
// in the NS bit on allocation. Returns the loaded value for reads.
func (c *Cache) Access(addr uint64, size int, write bool, wdata uint64, secure bool) (uint64, error) {
	tag, set, off := c.index(addr)
	if off+size > c.cfg.LineBytes {
		return 0, fmt.Errorf("cache %s: access at %#x size %d crosses a line", c.cfg.Name, addr, size)
	}
	if !c.enabled {
		c.stats.Bypasses++
		return c.bypass(addr, size, write, wdata)
	}
	var w int
	if c.memoWay >= 0 && tag == c.memoTag && set == int(c.memoSet) && c.tagRAM.Gen() == c.memoGen {
		// Memo hit: the tag RAM is untouched since the stamp, so the
		// memoised way still holds this line.
		w = int(c.memoWay)
		c.stats.Hits++
	} else if w = c.lookup(tag, set); w < 0 {
		c.stats.Misses++
		var err error
		w, err = c.fill(tag, set, secure)
		if err != nil {
			return 0, err
		}
		c.memoStore(tag, set, w)
	} else {
		c.stats.Hits++
		c.memoStore(tag, set, w)
	}
	c.touch(w, set)
	base := set*c.cfg.LineBytes + off
	if c.cfg.InlineECC {
		return c.accessECC(w, set, base, size, write, wdata)
	}
	if write {
		c.dataRAM[w].WriteUintN(base, size, wdata)
		c.markDirty(w, set)
		c.dataWritten(w, set)
		return 0, nil
	}
	return c.dataRAM[w].ReadUintN(base, size), nil
}

// memoStore records a freshly resolved (tag, set) → way mapping, stamped
// against the tag RAM's current generation.
func (c *Cache) memoStore(tag uint64, set, way int) {
	c.memoTag = tag
	c.memoSet = int32(set)
	c.memoWay = int32(way)
	c.memoGen = c.tagRAM.Gen()
}

// markDirty sets the dirty bit on (way, set). Lines that are already
// dirty skip the redundant tag write: the stored entry would be
// bit-identical, and skipping it keeps the tag RAM's generation — and
// with it the way memo — stable across store streams to a dirty line.
func (c *Cache) markDirty(way, set int) {
	e := c.tagEntry(way, set)
	if e&tagDirtyBit != 0 {
		return
	}
	c.setTagEntry(way, set, e|tagDirtyBit)
	// Our own tag write moved the generation but not the way mapping;
	// keep the memo alive if it points at this cache state.
	if c.memoWay >= 0 {
		c.memoGen = c.tagRAM.Gen()
	}
}

// accessECC performs an architectural access to an InlineECC data RAM:
// the hardware decodes stored words on read and re-encodes on write, so
// software sees plain data while the RAM holds the scrambled image.
// Accesses operate on the 4-byte codeword(s) covering the request.
func (c *Cache) accessECC(w, set, base, size int, write bool, wdata uint64) (uint64, error) {
	wordBase := base &^ 3
	span := (base+size+3)&^3 - wordBase // 4, 8 or 12 bytes: ≤3 codewords
	off := base - wordBase              // request start within the span
	arr := c.dataRAM[w]
	if write {
		for i := 0; i < span; i += 4 {
			dec := ECCDecodeWord(uint32(arr.ReadUintN(wordBase+i, 4)))
			// Overlay the request bytes covering this codeword.
			for k := 0; k < 4; k++ {
				if j := i + k - off; j >= 0 && j < size {
					shift := uint(8 * k)
					dec = dec&^(0xFF<<shift) | uint32(byte(wdata>>(8*uint(j))))<<shift
				}
			}
			arr.WriteUintN(wordBase+i, 4, uint64(ECCEncodeWord(dec)))
		}
		c.markDirty(w, set)
		c.dataWritten(w, set)
		return 0, nil
	}
	var v uint64
	for i := 0; i < span; i += 4 {
		dec := ECCDecodeWord(uint32(arr.ReadUintN(wordBase+i, 4)))
		for k := 0; k < 4; k++ {
			if j := i + k - off; j >= 0 && j < size {
				v |= uint64(byte(dec>>(8*uint(k)))) << (8 * uint(j))
			}
		}
	}
	return v, nil
}

// eccEncodeLine scrambles a line buffer in place for InlineECC storage.
func eccEncodeLine(buf []byte) {
	for i := 0; i+4 <= len(buf); i += 4 {
		word := uint32(buf[i]) | uint32(buf[i+1])<<8 | uint32(buf[i+2])<<16 | uint32(buf[i+3])<<24
		enc := ECCEncodeWord(word)
		buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(enc), byte(enc>>8), byte(enc>>16), byte(enc>>24)
	}
}

// eccDecodeLine unscrambles a line buffer in place (writebacks).
func eccDecodeLine(buf []byte) {
	for i := 0; i+4 <= len(buf); i += 4 {
		word := uint32(buf[i]) | uint32(buf[i+1])<<8 | uint32(buf[i+2])<<16 | uint32(buf[i+3])<<24
		dec := ECCDecodeWord(word)
		buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(dec), byte(dec>>8), byte(dec>>16), byte(dec>>24)
	}
}

// bypass routes an access around the disabled cache: read-modify-write of
// the backing line through the reusable scratch buffer.
func (c *Cache) bypass(addr uint64, size int, write bool, wdata uint64) (uint64, error) {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	off := int(addr - lineAddr)
	buf := c.scratch
	if err := c.backing.ReadLine(lineAddr, buf); err != nil { //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
		return 0, err
	}
	if write {
		for i := 0; i < size; i++ {
			buf[off+i] = byte(wdata >> (8 * i))
		}
		return 0, c.backing.WriteLine(lineAddr, buf) //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(buf[off+i]) << (8 * i)
	}
	return v, nil
}

// ReadLine implements Backing, letting this cache serve as the next level
// for an inner cache (L1 → L2). The transfer happens at line granularity
// — one lookup, one fill or hit, one LRU touch, one bulk data-RAM copy —
// so the inner line must match this cache's own geometry: every modelled
// device uses 64-byte lines at every level, and a transfer of another
// size or alignment is an error.
func (c *Cache) ReadLine(addr uint64, buf []byte) error {
	if len(buf) != c.cfg.LineBytes || addr&uint64(c.cfg.LineBytes-1) != 0 {
		return fmt.Errorf("cache: %s: ReadLine of %d bytes at %#x; lines are %d bytes, aligned", c.cfg.Name, len(buf), addr, c.cfg.LineBytes)
	}
	if !c.enabled {
		c.stats.Bypasses++
		return c.backing.ReadLine(addr, buf) //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
	}
	tag, set, _ := c.index(addr)
	w := c.lookup(tag, set)
	if w < 0 {
		c.stats.Misses++
		var err error
		if w, err = c.fill(tag, set, false); err != nil {
			return err
		}
	} else {
		c.stats.Hits++
	}
	c.touch(w, set)
	c.dataRAM[w].ReadBytesInto(set*c.cfg.LineBytes, buf)
	if c.cfg.InlineECC {
		eccDecodeLine(buf)
	}
	return nil
}

// WriteLine implements Backing. Like ReadLine it moves one whole,
// aligned line: a single allocate-and-overwrite, with the fill on a
// write miss kept so the victim choice and writeback sequence are those
// of any other write miss.
func (c *Cache) WriteLine(addr uint64, buf []byte) error {
	if len(buf) != c.cfg.LineBytes || addr&uint64(c.cfg.LineBytes-1) != 0 {
		return fmt.Errorf("cache: %s: WriteLine of %d bytes at %#x; lines are %d bytes, aligned", c.cfg.Name, len(buf), addr, c.cfg.LineBytes)
	}
	if !c.enabled {
		// A full-line overwrite needs no read of the backing line.
		c.stats.Bypasses++
		return c.backing.WriteLine(addr, buf) //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
	}
	tag, set, _ := c.index(addr)
	w := c.lookup(tag, set)
	if w < 0 {
		c.stats.Misses++
		var err error
		if w, err = c.fill(tag, set, false); err != nil {
			return err
		}
	} else {
		c.stats.Hits++
	}
	c.touch(w, set)
	if c.cfg.InlineECC {
		// Encode into scratch so the caller's buffer is not mutated.
		// fill has finished with scratch by this point.
		copy(c.scratch, buf)
		eccEncodeLine(c.scratch)
		c.dataRAM[w].WriteBytes(set*c.cfg.LineBytes, c.scratch)
	} else {
		c.dataRAM[w].WriteBytes(set*c.cfg.LineBytes, buf)
	}
	c.setTagEntry(w, set, c.tagEntry(w, set)|tagDirtyBit)
	c.dataWritten(w, set)
	return nil
}

// InvalidateAll clears every valid bit without writing anything back
// (IC IALLU semantics for i-caches): each valid entry loses its valid and
// dirty bits. Data RAM contents are untouched. The tag RAM applies the
// transform to the pages it has drawn and records it on the pages of a
// pending power-up resample, so a boot-time invalidate draws no tags.
func (c *Cache) InvalidateAll() {
	c.contentGen++
	c.tagRAM.InvalidateWords(tagValidBit, tagDirtyBit)
}

// CleanInvalidateVA cleans and invalidates the single line containing
// addr, if present (DC CIVAC).
func (c *Cache) CleanInvalidateVA(addr uint64) error {
	tag, set, _ := c.index(addr)
	w := c.lookup(tag, set)
	if w < 0 {
		return nil
	}
	c.contentGen++
	e := c.tagEntry(w, set)
	if e&tagDirtyBit != 0 {
		c.dataRAM[w].ReadBytesInto(set*c.cfg.LineBytes, c.scratch)
		if c.cfg.InlineECC {
			eccDecodeLine(c.scratch)
		}
		if err := c.backing.WriteLine(c.lineAddr(tag, set), c.scratch); err != nil { //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
			return err
		}
		c.stats.Writebacks++
	}
	c.setTagEntry(w, set, e&^(tagValidBit|tagDirtyBit))
	return nil
}

// ZeroLineVA implements DC ZVA: allocate the line containing addr and
// write zeros into its data RAM. This is the only maintenance operation
// that modifies data RAM contents (§5.2.4) — and it is d-cache only.
func (c *Cache) ZeroLineVA(addr uint64, secure bool) error {
	if !c.enabled {
		// Architecturally DC ZVA with the cache off zeroes memory
		// directly.
		lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
		for i := range c.scratch {
			c.scratch[i] = 0
		}
		return c.backing.WriteLine(lineAddr, c.scratch) //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
	}
	c.contentGen++
	tag, set, _ := c.index(addr)
	w := c.lookup(tag, set)
	if w < 0 {
		var err error
		// ZVA allocates without a backing fill: pick a victim, write back
		// if dirty, then install the zero line.
		w, err = c.victim(set)
		if err != nil {
			return err
		}
		if e := c.tagEntry(w, set); e&tagValidBit != 0 && e&tagDirtyBit != 0 {
			c.dataRAM[w].ReadBytesInto(set*c.cfg.LineBytes, c.scratch)
			if c.cfg.InlineECC {
				eccDecodeLine(c.scratch)
			}
			if err := c.backing.WriteLine(c.lineAddr(e&tagMask, set), c.scratch); err != nil { //voltvet:ignore VV-HOT006 deliberate backing seam: the next level is an L2 cache or DRAM, decided at wiring time; the dynamic zero-alloc gate covers both
				return err
			}
			c.stats.Writebacks++
		}
	}
	// The all-zero line is its own ECC encoding (parity of zero is zero),
	// so zero words can be stored directly even for InlineECC RAMs.
	for i := 0; i < c.cfg.LineBytes; i += 8 {
		c.dataRAM[w].WriteUint64(set*c.cfg.LineBytes+i, 0)
	}
	entry := tag | tagValidBit | tagDirtyBit
	if !secure {
		entry |= tagNSBit
	}
	c.setTagEntry(w, set, entry)
	c.touch(w, set)
	return nil
}

// LineInfo is the tag-side metadata of one (way, set) as RAMINDEX sees it.
type LineInfo struct {
	Valid     bool
	Dirty     bool
	NonSecure bool
	Tag       uint64
	// Addr is the line's memory address if Valid.
	Addr uint64
}

// Line returns the tag metadata for (way, set).
func (c *Cache) Line(way, set int) LineInfo {
	return ParseTagEntry(c.tagEntry(way, set), set, c.cfg)
}

// ParseTagEntry decodes a raw tag-RAM word (as read via RAMINDEX) into
// line metadata for the given set and cache geometry — the attacker-side
// post-processing that turns a tag dump into the *addresses* of the
// stolen lines.
func ParseTagEntry(e uint64, set int, cfg Config) LineInfo {
	li := LineInfo{
		Valid:     e&tagValidBit != 0,
		Dirty:     e&tagDirtyBit != 0,
		NonSecure: e&tagNSBit != 0,
		Tag:       e & tagMask,
	}
	if li.Valid {
		li.Addr = (li.Tag*uint64(cfg.Sets()) + uint64(set)) * uint64(cfg.LineBytes)
	}
	return li
}

// RAMIndexData reads the 64-bit word at wordIndex of way's data RAM,
// exactly as the RAMINDEX debug operation does: no hit/miss logic, no
// valid-bit check. wordIndex counts 64-bit words from the start of the
// way (set·wordsPerLine + wordInLine).
func (c *Cache) RAMIndexData(way, wordIndex int) (uint64, error) {
	if way < 0 || way >= c.cfg.Ways {
		return 0, fmt.Errorf("cache %s: RAMINDEX way %d out of range", c.cfg.Name, way)
	}
	if wordIndex < 0 || wordIndex*8 >= c.sets*c.cfg.LineBytes {
		return 0, fmt.Errorf("cache %s: RAMINDEX word %d out of range", c.cfg.Name, wordIndex)
	}
	return c.dataRAM[way].ReadUint64(wordIndex * 8), nil
}

// RAMIndexTag reads the raw tag entry for (way, set) via the debug path.
func (c *Cache) RAMIndexTag(way, set int) (uint64, error) {
	if way < 0 || way >= c.cfg.Ways || set < 0 || set >= c.sets {
		return 0, fmt.Errorf("cache %s: RAMINDEX tag (%d,%d) out of range", c.cfg.Name, way, set)
	}
	return c.tagEntry(way, set), nil
}

// SecureLineAt reports whether the line holding the data-RAM word at
// wordIndex of way is a valid secure (NS=0) allocation — used by the
// TrustZone countermeasure to veto RAMINDEX reads.
func (c *Cache) SecureLineAt(way, wordIndex int) bool {
	set := wordIndex * 8 / c.cfg.LineBytes
	if set >= c.sets {
		return false
	}
	li := c.Line(way, set)
	return li.Valid && !li.NonSecure
}

// WayBytes is the data capacity of one way.
func (c *Cache) WayBytes() int { return c.sets * c.cfg.LineBytes }

// DumpWay returns the raw contents of one way's data RAM — what an
// attacker reconstructs by sweeping RAMINDEX over the way.
func (c *Cache) DumpWay(way int) []byte {
	return c.dataRAM[way].ReadBytes(0, c.WayBytes())
}
