// Superblock dispatch: the predecoded i-stream, held as straight-line
// blocks executed in a tight inner loop.
//
// A block is built by reading its words straight from the level that
// serves its fetches (the L1I, the L2 with the L1I off, or the mask ROM)
// and decoding them once. It is stamped with the generation that guards
// all of them (predecGen sums one to three monotonic counters), so
// validation is paid once at block entry, and the loop runs with only
// the per-instruction *side-effect replay* (TLB/BTB history writes,
// serving-cache hit counter and LRU touch) and the execute step itself.
//
// The hoist is sound because the interpreter is single-threaded: between
// two instructions of one block, the only agents that can move a
// guarding counter are the in-block instruction that just executed and
// a fault injector attached to the core. Instructions that can do so
// (stores, cache maintenance, system-register writes, and — for blocks
// fetched through the L2 — loads, which can trigger L2 fills) are
// flagged at build time and re-validate the block generation after
// executing; a block run that starts with a fault injector attached
// re-validates after every instruction, since the injector's pulse
// edges are rail events. A mismatch ends the block, and the dispatcher
// rebuilds it from the lines as they now are. Other external mutations
// (JTAG pokes, power cycles) happen between RunCore calls, never inside
// a quantum.
//
// Blocks are purely derived microarchitectural state: they hold nothing
// a fetch could not re-derive, live outside the SRAM retention physics,
// and are built by reads that count no hit and touch no LRU entry, so
// building has no architectural side effects.
package soc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Superblock geometry: a direct-mapped per-core block cache keyed on
// word-aligned start PC. 256 slots × 32 instructions reaches any loop
// body the experiments run; the tables are lazily allocated on the first
// RunCoreQuantum call so cores that never run pay nothing.
const (
	sbSlots  = 256
	sbMaxLen = 32
)

// sbInstr is one predecoded instruction captured into a block.
type sbInstr struct {
	in   isa.Instr
	word uint32
	way  int32 // serving (way, set) for cache-served modes
	set  int32
	// recheck marks instructions whose execution can move a counter in
	// this block's generation sum; the dispatch loop re-validates the
	// block after executing them.
	recheck bool
}

// sblock is a captured straight-line run starting at addr. All its
// instructions are served by one level (formation stops at the end of
// its region), so a single generation stamp guards the whole block.
// n == 0 marks an empty or unbuildable slot.
type sblock struct {
	addr  uint64
	gen   uint64
	mode  uint8
	n     int32
	instr [sbMaxLen]sbInstr
}

// sbTerminal reports whether op ends superblock formation: anything that
// can redirect the PC, and HLT. The terminal instruction is *included* in
// the block — the dispatch loop detects the redirect (or halt) after
// executing it.
func sbTerminal(op isa.Op) bool { return op.Class()&isa.ClassEndsBlock != 0 }

// sbRecheck reports whether executing op can move a counter in the
// generation sum guarding a block of the given mode, requiring the
// dispatch loop to re-validate after it retires.
//
// Per mode (see predecGen):
//   - predecROM: gen is constantly 0; nothing to re-validate.
//   - predecL1I: L1I content gen (ICIALLU, cache-enable MSRs) + mutGen,
//     which no instruction moves (rail events, boots and shutdowns; a
//     fault injector's pulse edges are covered by the hooked
//     re-validation in runSuperblock).
//   - predecL2: additionally the L2 content gen, which *loads* can move
//     too — a data-side miss can fill the L2 — as can the writebacks of
//     DC ZVA / DC CIVAC. Stores and fills move it only when they land in
//     or evict a line some block was built from (cache.MarkFetched).
//
// Stores and system ops (MSR and cache maintenance) are flagged for
// every non-ROM mode rather than split per counter: they are rare in hot
// loops, and one spurious recheck costs a handful of adds.
func sbRecheck(op isa.Op, mode uint8) bool {
	c := op.Class()
	switch {
	case mode == predecROM:
		return false
	case c&(isa.ClassStore|isa.ClassSystem) != 0:
		return true
	}
	return c&isa.ClassLoad != 0 && mode == predecL2
}

// buildSuperblock (re)captures the block starting at pc by reading its
// words from the level that serves its fetches: for DRAM, the L1I when
// it is enabled, else the L2; the mask ROM itself. It marks every cache
// line it reads (cache.MarkFetched), so a data write into the line, or
// a fill that evicts it, moves the block's generation. Its reads count
// no hit and touch no LRU entry; runSuperblock replays both as each
// instruction runs. Formation stops after a terminal instruction, at
// sbMaxLen, at the end of the region, or at a line the serving level
// does not hold. A misaligned pc, a pc served uncached and one whose
// line is not resident leave the slot empty, and the caller takes one
// cpu.Step, whose fetch fills the line for the next attempt.
//
//voltvet:hotpath root
func (s *SoC) buildSuperblock(c *Core, b *sblock, pc uint64) {
	b.n = 0
	if pc&3 != 0 {
		return
	}
	var mode uint8
	var ch *cache.Cache
	switch {
	case s.inDRAM(pc) && c.L1I.Enabled():
		mode, ch = predecL1I, c.L1I
	case s.inDRAM(pc) && s.L2.Enabled():
		mode, ch = predecL2, s.L2
	case s.inROM(pc):
		mode = predecROM
	default:
		return
	}
	b.addr = pc
	b.mode = mode
	b.gen = s.predecGen(c, mode)
	n := int32(0)
	for addr := pc; n < sbMaxLen; addr += 4 {
		var word uint32
		var way, set int
		if ch != nil {
			var ok bool
			if !s.inDRAM(addr) {
				break
			}
			if way, set, ok = ch.ResidentWaySet(addr); !ok {
				break
			}
			ch.MarkFetched(way, set)
			word = ch.FetchWord(way, set, addr)
		} else {
			if !s.inROM(addr) {
				break
			}
			word, _ = s.FetchInstr(c.ID, addr) // a ROM read cannot fail
		}
		// Field by field: a composite literal would be built in a
		// temporary and block-copied into the slot.
		e := &b.instr[n]
		e.in = isa.Decode(word)
		e.word = word
		e.way = int32(way)
		e.set = int32(set)
		e.recheck = sbRecheck(e.in.Op, mode)
		n++
		if sbTerminal(e.in.Op) {
			break
		}
	}
	b.n = n
}

// runSuperblock executes up to limit instructions of the validated block
// b, replaying for each one exactly the side effects a full fetch from
// the serving level would have had, in the same order (history buffers
// and cache touch before execute). It returns on block end, taken
// branch, halt, budget exhaustion, invalidation, or error.
//
// A run that starts with a fault injector attached re-validates the
// block after every instruction: the injector may change the i-side
// between two instructions (a glitcher's pulse edges are rail events).
// The flag is read once, here: a glitcher detaches itself at its
// trailing edge, inside the block, and the rest of the run must still
// re-validate.
//
//voltvet:hotpath root
func (s *SoC) runSuperblock(c *Core, b *sblock, limit uint64) (uint64, error) {
	cpu := c.CPU
	hooked := cpu.Hooks != nil && cpu.Hooks.Fault != nil
	var n uint64
	addr := b.addr
	for i := int32(0); i < b.n && n < limit; i++ {
		e := &b.instr[i]
		switch b.mode {
		case predecL1I:
			s.updateHistoryBuffers(c, addr, true)
			c.L1I.TouchFetchHit(int(e.way), int(e.set))
		case predecL2:
			s.updateHistoryBuffers(c, addr, true)
			s.L2.TouchFetchHit(int(e.way), int(e.set))
		case predecROM:
			// ROM fetches have no history-buffer or cache side effects.
		}
		if err := cpu.ExecDecoded(e.in, e.word); err != nil {
			return n, err
		}
		n++
		if cpu.Halted {
			return n, nil
		}
		addr += 4
		if cpu.PC != addr {
			return n, nil // taken branch: the block ends here
		}
		if (hooked || e.recheck) && b.gen != s.predecGen(c, b.mode) {
			return n, nil // i-side state moved since the block was stamped
		}
	}
	return n, nil
}

// RunCoreQuantum executes core id for up to maxInstr instructions or
// until it halts, dispatching through superblocks where the serving
// level holds the code and taking single cpu.Steps (whose fetches fill
// the lines the next blocks are built from) where it does not. It
// returns the number of instructions retired. Architectural and
// microarchitectural state evolve bit-identically to maxInstr calls of
// cpu.Step, and so does an attached observer's record: a fault
// injector is consulted, and a trace sink fed, through ExecDecoded
// exactly as in a step, and the block loop's fetch replay, like a full
// fetch, never reaches the sink's bus tap.
func (s *SoC) RunCoreQuantum(id int, maxInstr uint64) (uint64, error) {
	if id < 0 || id >= len(s.Cores) {
		return 0, fmt.Errorf("soc: core %d out of range", id)
	}
	c := s.Cores[id]
	cpu := c.CPU
	if c.sblocks == nil {
		c.sblocks = make([]sblock, sbSlots)
	}
	var n uint64
	for !cpu.Halted && n < maxInstr {
		b := &c.sblocks[(cpu.PC>>2)&(sbSlots-1)]
		if b.n == 0 || b.addr != cpu.PC || b.gen != s.predecGen(c, b.mode) {
			s.buildSuperblock(c, b, cpu.PC)
		}
		if b.n > 0 && b.addr == cpu.PC {
			k, err := s.runSuperblock(c, b, maxInstr-n)
			n += k
			if err != nil {
				return n, err
			}
			continue
		}
		// No block at this PC: take one reference step.
		if err := cpu.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
