// Superblock dispatch: the predecoded i-stream (see FetchDecoded) turned
// into straight-line blocks executed in a tight inner loop.
//
// FetchDecoded already removes the fetch/decode work from the hot path,
// but it still pays the full per-instruction entry cost: the table index,
// the address compare, and — dominating — the generation recompute
// (predecGen sums one to three monotonic counters per fetch). A
// superblock hoists that validation to block entry: a straight-line run
// of already-predecoded instructions is captured as a unit, stamped with
// the generation that guards all of them, and then executed back to back
// with only the per-instruction *side-effect replay* (TLB/BTB history
// writes, serving-cache hit counter and LRU touch) and the execute step
// itself inside the loop.
//
// The hoist is sound because the interpreter is single-threaded: between
// two instructions of one block, the only agent that can move a guarding
// counter is the in-block instruction that just executed. Instructions
// that can do so (stores, cache maintenance, system-register writes, and
// — for blocks fetched through the L2 — loads, which can trigger L2
// fills) are flagged at build time and re-validate the block generation
// after executing; a mismatch ends the block and falls back to the
// per-instruction path, exactly as a generation bump retires predecode
// entries. External mutations (JTAG pokes, rail events) happen between
// RunCore calls, never inside a quantum.
//
// Blocks are purely derived microarchitectural state, like predec: they
// hold nothing a fetch could not re-derive, live outside the SRAM
// retention physics, and are (re)built only from currently-valid
// predecode entries, so building has no architectural side effects.
package soc

import (
	"fmt"

	"repro/internal/isa"
)

// Superblock geometry: a direct-mapped per-core block cache keyed on
// word-aligned start PC. 256 slots × 32 instructions reaches any loop
// body the experiments run; the tables are lazily allocated on the first
// RunCoreQuantum call so cores that only ever single-step pay nothing.
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

// sblock is a captured straight-line run starting at addr. All entries
// share one predecode mode (formation stops at a mode change), so a
// single generation stamp guards the whole block. n == 0 marks an empty
// or unbuildable slot.
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
//     which no instruction inside a block moves (its events happen
//     between quanta).
//   - predecL2: additionally the L2 content gen, which *loads* can move
//     too — a data-side miss can fill the L2 — as can the writebacks of
//     DC ZVA / DC CIVAC. Stores and fills move it only when they land in
//     or evict a line some predecode entry was fetched from
//     (cache.MarkFetched).
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

// buildSuperblock (re)captures the block starting at pc from the core's
// currently-valid predecode entries. It never fetches: a PC whose
// predecode entry is missing or stale, or a core with no predecode
// table yet, leaves the slot empty and the caller falls back to
// cpu.Step, which installs entries for the next attempt (uncached DRAM
// and iRAM fetches never get one).
func (s *SoC) buildSuperblock(c *Core, b *sblock, pc uint64) {
	b.n = 0
	if c.predec == nil {
		return
	}
	e := &c.predec[(pc>>2)&(predecEntries-1)]
	if e.mode == predecNone || e.addr != pc {
		return
	}
	mode := e.mode
	gen := s.predecGen(c, mode)
	if e.gen != gen {
		return
	}
	b.addr = pc
	b.mode = mode
	b.gen = gen
	n := int32(0)
	addr := pc
	for n < sbMaxLen {
		pe := &c.predec[(addr>>2)&(predecEntries-1)]
		if pe.mode != mode || pe.addr != addr || pe.gen != gen {
			break
		}
		b.instr[n] = sbInstr{
			in:      pe.in,
			word:    pe.word,
			way:     pe.way,
			set:     pe.set,
			recheck: sbRecheck(pe.in.Op, mode),
		}
		n++
		if sbTerminal(pe.in.Op) {
			break
		}
		addr += 4
	}
	b.n = n
}

// runSuperblock executes up to limit instructions of the validated block
// b, replaying for each one exactly the side effects the per-instruction
// FetchDecoded hit path would have had, in the same order (history
// buffers and cache touch before execute). It returns on block end,
// taken branch, halt, budget exhaustion, self-invalidation, or error.
//
//voltvet:hotpath root
func (s *SoC) runSuperblock(c *Core, b *sblock, limit uint64) (uint64, error) {
	cpu := c.CPU
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
		if e.recheck && b.gen != s.predecGen(c, b.mode) {
			return n, nil // the instruction invalidated i-side state
		}
	}
	return n, nil
}

// RunCoreQuantum executes core id for up to maxInstr instructions or
// until it halts, dispatching through superblocks where the predecoded
// i-stream allows and falling back to single steps (which install the
// predecode entries superblocks are built from) where it does not. It
// returns the number of instructions retired. Architectural and
// microarchitectural state evolve bit-identically to maxInstr calls of
// cpu.Step, and so does an attached trace sink's record. A core with a
// fault injector attached single-steps.
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
		// A core with a fault injector single-steps: a glitcher's pulse
		// edges are rail events, which the superblock soundness
		// argument assumes happen between quanta, never inside a
		// block. A trace sink alone runs blocks: ExecDecoded feeds it
		// through the hooked body, writeX and the SoC's bus tap exactly
		// as a step does, and the block loop's fetch replay, like a
		// predecode hit, never reaches the tap.
		if h := cpu.Hooks; h != nil && h.Fault != nil {
			if err := cpu.Step(); err != nil {
				return n, err
			}
			n++
			continue
		}
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
		// No block available at this PC: take one full step, which
		// installs the predecode entry for the next formation attempt.
		if err := cpu.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
