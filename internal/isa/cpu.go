package isa

import (
	"fmt"

	"repro/internal/sram"
)

// Bus is the CPU's memory port. In an SoC the bus routes accesses through
// the L1 caches, L2, and on to DRAM or iRAM; the core index lets shared
// levels attribute accesses correctly.
type Bus interface {
	// FetchInstr reads a 32-bit instruction word through the i-side.
	FetchInstr(core int, addr uint64) (uint32, error)
	// Load reads size bytes (1, 4, or 8) through the d-side, zero-extended.
	Load(core int, addr uint64, size int) (uint64, error)
	// Store writes the low size bytes of v through the d-side.
	Store(core int, addr uint64, size int, v uint64) error
	// Load128 reads 16 bytes (for VLDR), little-endian pair {lo, hi}.
	Load128(core int, addr uint64) ([2]uint64, error)
	// Store128 writes 16 bytes (for VSTR).
	Store128(core int, addr uint64, v [2]uint64) error
}

// SysOps provides the system operations that reach beyond the register
// file: cache maintenance and the RAMINDEX debug path. The SoC implements
// this against its real cache models.
type SysOps interface {
	// DCZVA zeroes the cache line containing addr (data RAM write — the
	// only architectural way to reset L1 data contents, §5.2.4).
	DCZVA(core int, addr uint64) error
	// DCCIVAC cleans and invalidates the line containing addr by virtual
	// address (data survives in the RAM; only state bits change).
	DCCIVAC(core int, addr uint64) error
	// ICIALLU invalidates the entire i-cache (again: state bits only).
	ICIALLU(core int)
	// RAMIndexRead services an MSR RAMINDEX request. el is the current
	// exception level. fault is true when the access is denied (wrong EL,
	// TrustZone-protected line).
	RAMIndexRead(core int, req uint64, el int) (data uint64, fault bool)
	// Barrier drains outstanding accesses (DSB). The interpreter is
	// in-order so this is semantically a no-op, but payloads include the
	// barriers the paper's §6.1 requires and the SoC counts them.
	Barrier(core int)
}

// Flags is the NZCV condition flag set.
type Flags struct {
	N, Z, C, V bool
}

// CPU interprets VBA64 instructions. It is deliberately simple: in-order,
// one instruction per Step, no speculation. Microarchitectural timing is
// irrelevant to the attack; what matters is which SRAM cells hold what.
type CPU struct {
	// ID is the core number returned by MRS COREID.
	ID int
	// EL is the current exception level (0–3). Bare-metal payloads boot
	// at EL3, matching the paper's requirement for RAMINDEX access.
	EL int

	PC    uint64
	Flags Flags
	// Regs is the core's register file: an SRAM array in the core power
	// domain, so register contents obey the same retention physics as
	// the caches (the mechanism behind the §7.2 vector-register attack).
	// Layout: X0–X30 at 8·i, V0–V31 at regVBase+16·i (see RegFileBytes).
	//voltvet:nosnap an sram.Array with its own snapshot pair, enumerated by the SoC array list
	Regs    *sram.Array
	BusPort Bus
	Sys     SysOps

	// Hooks is the one instrumentation seam the step path tests (see
	// hooks.go): it points at hooks while a fault injector or a trace
	// sink is attached and is nil otherwise. Only the Attach/Detach
	// methods change either.
	//voltvet:nosnap observers are not machine state; the SoC refuses to capture or restore a snapshot while any core has hooks attached
	Hooks *Hooks
	//voltvet:nosnap observers are not machine state; the SoC refuses to capture or restore a snapshot while any core has hooks attached
	hooks Hooks

	// Halted is set by HLT; HaltCode carries its immediate.
	Halted   bool
	HaltCode int64
	// Instret counts retired instructions.
	Instret uint64

	// ramData/ramStatus latch the result of the last RAMINDEX operation,
	// read back through MRS RAMDATA0/RAMSTATUS.
	ramData   uint64
	ramStatus uint64
	// scrNS is the SCR_NS system register (TrustZone non-secure bit).
	scrNS uint64
	// NSLocked pins the core in the non-secure state: SCR_NS reads as 1
	// and writes fault. A TrustZone-enforcing boot chain sets this before
	// handing control to externally supplied code (§8).
	NSLocked bool
}

// Register-file layout inside the register SRAM array: the 31
// general-purpose registers first, then the 32 128-bit vector registers.
const (
	regVBase = 256 // 31×8 = 248 bytes of X registers, padded to 256
	// RegFileBytes is the smallest register array NewCPU accepts:
	// 256 + 32×16 = 768 bytes.
	RegFileBytes = regVBase + 32*16
)

// NewCPU builds a core over the register array regs (at least
// RegFileBytes bytes).
func NewCPU(id int, regs *sram.Array, bus Bus, sys SysOps) *CPU {
	if regs.Bytes() < RegFileBytes {
		panic("isa: register array too small")
	}
	return &CPU{ID: id, EL: 3, Regs: regs, BusPort: bus, Sys: sys}
}

// Reset prepares the core to run from entry at EL3 with cleared flags.
// It does NOT clear the register file: register SRAM has no
// reset hardware (§5.2.4) — whatever the cells hold, the core boots with.
func (c *CPU) Reset(entry uint64) {
	c.PC = entry
	c.Flags = Flags{}
	c.EL = 3
	c.Halted = false
	c.HaltCode = 0
	c.ramData = 0
	c.ramStatus = 0
}

// X reads general-purpose register i (XZR reads as zero).
func (c *CPU) X(i int) uint64 {
	if i == XZR {
		return 0
	}
	return c.Regs.ReadUint64(8 * i)
}

// SetX writes general-purpose register i (writes to XZR are discarded).
// The write itself lives in writeX so SetX stays inlinable.
func (c *CPU) SetX(i int, v uint64) {
	if i == XZR {
		return
	}
	c.writeX(i, v)
}

// writeX stores a GPR writeback, first feeding an attached trace sink
// the flop toggles — tapped before the cells are overwritten, so the
// dying value is one cell peek away.
func (c *CPU) writeX(i int, v uint64) {
	if h := c.Hooks; h != nil && h.Sink != nil {
		h.Sink.RegWrite(c.Regs.PeekUint64(8*i), v)
	}
	c.Regs.WriteUint64(8*i, v)
}

// Secure reports whether the core is in the TrustZone secure state
// (SCR_NS == 0 and not locked out of it).
func (c *CPU) Secure() bool { return !c.NSLocked && c.scrNS == 0 }

// V reads vector register i.
func (c *CPU) V(i int) [2]uint64 {
	base := regVBase + 16*i
	return [2]uint64{c.Regs.ReadUint64(base), c.Regs.ReadUint64(base + 8)}
}

// SetV writes vector register i.
func (c *CPU) SetV(i int, v [2]uint64) {
	base := regVBase + 16*i
	c.Regs.WriteUint64(base, v[0])
	c.Regs.WriteUint64(base+8, v[1])
}

// UndefinedError reports execution of an undecodable word — e.g. a core
// branching into uninitialized SRAM.
type UndefinedError struct {
	PC   uint64
	Word uint32
}

func (e *UndefinedError) Error() string {
	return fmt.Sprintf("isa: undefined instruction %#08x at PC %#x", e.Word, e.PC)
}

func (c *CPU) condHolds(cond Cond) bool {
	f := c.Flags
	switch cond {
	case EQ:
		return f.Z
	case NE:
		return !f.Z
	case LT:
		return f.N != f.V
	case GE:
		return f.N == f.V
	case LO:
		return !f.C
	case HS:
		return f.C
	case GT:
		return !f.Z && f.N == f.V
	case LE:
		return f.Z || f.N != f.V
	default:
		return false
	}
}

func (c *CPU) setFlagsAdd(a, b uint64) uint64 {
	r := a + b
	c.Flags.N = r>>63 == 1
	c.Flags.Z = r == 0
	c.Flags.C = r < a // unsigned carry out
	c.Flags.V = (a>>63 == b>>63) && (r>>63 != a>>63)
	return r
}

func (c *CPU) setFlagsSub(a, b uint64) uint64 {
	r := a - b
	c.Flags.N = r>>63 == 1
	c.Flags.Z = r == 0
	c.Flags.C = a >= b // no borrow
	c.Flags.V = (a>>63 != b>>63) && (r>>63 != a>>63)
	return r
}

// Step fetches, decodes and executes one instruction: the plain
// reference every faster dispatch path is checked against, and the
// step the SoC's superblock dispatcher takes where no block forms. It
// holds no derived state; each call fetches through the bus's
// FetchInstr. It returns an error on memory faults or undefined
// instructions; the core keeps its state so callers can inspect the
// failure.
//
//voltvet:hotpath root
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	word, err := c.BusPort.FetchInstr(c.ID, c.PC) //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
	if err != nil {
		return fmt.Errorf("fetch at PC %#x: %w", c.PC, err)
	}
	return c.ExecDecoded(Decode(word), word)
}

// ExecDecoded executes one already-fetched-and-decoded instruction: the
// execute-and-retire half of Step, split out so a dispatcher that serves
// decoded instructions from its own cache (the SoC's superblock runner)
// can drive the core without a per-instruction fetch call. The word
// feeds the undefined-instruction diagnostics, exactly as in Step.
// Callers are responsible for the Halted check Step performs.
func (c *CPU) ExecDecoded(in Instr, word uint32) error {
	if c.Hooks != nil {
		return c.execHooked(in, word)
	}
	return c.exec(in, word)
}

// exec is the fault-free execute-and-retire body behind ExecDecoded.
func (c *CPU) exec(in Instr, word uint32) error {
	next := c.PC + 4

	switch in.Op {
	case OpMOVZ:
		c.SetX(in.Rd, uint64(in.Imm)<<(16*uint(in.Hw)))
	case OpMOVK:
		mask := uint64(0xFFFF) << (16 * uint(in.Hw))
		c.SetX(in.Rd, c.X(in.Rd)&^mask|uint64(in.Imm)<<(16*uint(in.Hw)))
	case OpMOVN:
		c.SetX(in.Rd, ^(uint64(in.Imm) << (16 * uint(in.Hw))))
	case OpADD:
		c.SetX(in.Rd, c.X(in.Rn)+c.X(in.Rm))
	case OpSUB:
		c.SetX(in.Rd, c.X(in.Rn)-c.X(in.Rm))
	case OpAND:
		c.SetX(in.Rd, c.X(in.Rn)&c.X(in.Rm))
	case OpORR:
		c.SetX(in.Rd, c.X(in.Rn)|c.X(in.Rm))
	case OpEOR:
		c.SetX(in.Rd, c.X(in.Rn)^c.X(in.Rm))
	case OpLSLV:
		c.SetX(in.Rd, c.X(in.Rn)<<(c.X(in.Rm)&63))
	case OpLSRV:
		c.SetX(in.Rd, c.X(in.Rn)>>(c.X(in.Rm)&63))
	case OpMUL:
		c.SetX(in.Rd, c.X(in.Rn)*c.X(in.Rm))
	case OpSUBS:
		c.SetX(in.Rd, c.setFlagsSub(c.X(in.Rn), c.X(in.Rm)))
	case OpADDS:
		c.SetX(in.Rd, c.setFlagsAdd(c.X(in.Rn), c.X(in.Rm)))
	case OpADDI:
		c.SetX(in.Rd, c.X(in.Rn)+uint64(in.Imm))
	case OpSUBI:
		c.SetX(in.Rd, c.X(in.Rn)-uint64(in.Imm))
	case OpSUBSI:
		c.SetX(in.Rd, c.setFlagsSub(c.X(in.Rn), uint64(in.Imm)))
	case OpLDR, OpLDRW, OpLDRB:
		v, err := c.BusPort.Load(c.ID, c.X(in.Rn)+uint64(in.Imm), accessSize(in.Op)) //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
		if err != nil {
			return fmt.Errorf("load at PC %#x: %w", c.PC, err)
		}
		c.SetX(in.Rd, v)
	case OpSTR, OpSTRW, OpSTRB:
		if err := c.BusPort.Store(c.ID, c.X(in.Rn)+uint64(in.Imm), accessSize(in.Op), c.X(in.Rd)); err != nil { //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
			return fmt.Errorf("store at PC %#x: %w", c.PC, err)
		}
	case OpVLDR:
		v, err := c.BusPort.Load128(c.ID, c.X(in.Rn)+uint64(in.Imm)) //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
		if err != nil {
			return fmt.Errorf("vldr at PC %#x: %w", c.PC, err)
		}
		c.SetV(in.Rd, v)
	case OpVSTR:
		if err := c.BusPort.Store128(c.ID, c.X(in.Rn)+uint64(in.Imm), c.V(in.Rd)); err != nil { //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
			return fmt.Errorf("vstr at PC %#x: %w", c.PC, err)
		}
	case OpB:
		next = c.PC + uint64(in.Imm*4)
	case OpBL:
		c.SetX(30, c.PC+4)
		next = c.PC + uint64(in.Imm*4)
	case OpBCond:
		if c.condHolds(in.Cond) {
			next = c.PC + uint64(in.Imm*4)
		}
	case OpCBZ:
		if c.X(in.Rd) == 0 {
			next = c.PC + uint64(in.Imm*4)
		}
	case OpCBNZ:
		if c.X(in.Rd) != 0 {
			next = c.PC + uint64(in.Imm*4)
		}
	case OpRET:
		next = c.X(in.Rn)
	case OpNOP:
	case OpHLT:
		c.Halted = true
		c.HaltCode = in.Imm
	case OpDSB, OpISB:
		if c.Sys != nil {
			c.Sys.Barrier(c.ID) //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
		}
	case OpMRS:
		c.SetX(in.Rd, c.readSysReg(in.Sys))
	case OpMSR:
		if err := c.writeSysReg(in.Sys, c.X(in.Rd)); err != nil {
			return fmt.Errorf("msr at PC %#x: %w", c.PC, err)
		}
	case OpDCZVA:
		if err := c.Sys.DCZVA(c.ID, c.X(in.Rd)); err != nil { //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
			return fmt.Errorf("dc zva at PC %#x: %w", c.PC, err)
		}
	case OpDCCIVAC:
		if err := c.Sys.DCCIVAC(c.ID, c.X(in.Rd)); err != nil { //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
			return fmt.Errorf("dc civac at PC %#x: %w", c.PC, err)
		}
	case OpICIALLU:
		c.Sys.ICIALLU(c.ID) //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
	case OpVMOVI:
		b := uint64(in.Imm)
		rep := b | b<<8 | b<<16 | b<<24 | b<<32 | b<<40 | b<<48 | b<<56
		c.SetV(in.Rd, [2]uint64{rep, rep})
	case OpVEOR:
		a, b := c.V(in.Rn), c.V(in.Rm)
		c.SetV(in.Rd, [2]uint64{a[0] ^ b[0], a[1] ^ b[1]})
	case OpUMOV:
		c.SetX(in.Rd, c.V(in.Rn)[in.Idx])
	case OpINS:
		v := c.V(in.Rd)
		v[in.Idx] = c.X(in.Rn)
		c.SetV(in.Rd, v)
	default:
		return &UndefinedError{PC: c.PC, Word: word}
	}

	c.PC = next
	c.Instret++
	return nil
}

func (c *CPU) readSysReg(id uint32) uint64 {
	switch id {
	case SysCurrentEL:
		return uint64(c.EL)
	case SysCoreID:
		return uint64(c.ID)
	case SysCNT:
		return c.Instret
	case SysRAMDATA0:
		return c.ramData
	case SysRAMSTATUS:
		return c.ramStatus
	case SysSCRNS:
		if c.NSLocked {
			return 1
		}
		return c.scrNS
	default:
		return 0
	}
}

func (c *CPU) writeSysReg(id uint32, v uint64) error {
	switch id {
	case SysRAMINDEX:
		data, fault := c.Sys.RAMIndexRead(c.ID, v, c.EL) //voltvet:ignore VV-HOT006 CPU-to-SoC bus seam: the ISA layer cannot import soc without an import cycle; resolves to *soc.SoC in every build
		if fault {
			c.ramData = 0
			c.ramStatus = 1
		} else {
			c.ramData = data
			c.ramStatus = 0
		}
		return nil
	case SysSCRNS:
		if c.EL < 3 {
			return fmt.Errorf("isa: SCR_NS write requires EL3 (at EL%d)", c.EL)
		}
		if c.NSLocked {
			return fmt.Errorf("isa: SCR_NS is locked non-secure by the boot chain")
		}
		c.scrNS = v & 1
		return nil
	case SysCurrentEL, SysCoreID, SysCNT, SysRAMDATA0, SysRAMSTATUS:
		return fmt.Errorf("isa: write to read-only system register %s", SysRegName(id))
	default:
		return fmt.Errorf("isa: write to unknown system register %#x", id)
	}
}

// RunawayError reports a program that failed to halt within its budget.
type RunawayError struct {
	PC  uint64
	Max uint64
}

func (e *RunawayError) Error() string {
	return fmt.Sprintf("isa: program did not halt within %d instructions (PC %#x)", e.Max, e.PC)
}
