// Package isa implements VBA64, a compact ARM-like 64-bit instruction set
// with a fixed 32-bit encoding, together with an assembler, a
// disassembler, and an interpreting CPU model.
//
// The Volt Boot paper's experiments run small aarch64 bare-metal programs
// (NOP fills, pattern stores, cache-dump payloads using RAMINDEX and
// barriers). Reproducing those experiments faithfully requires *actual
// machine code occupying simulated i-cache lines*, so that "compare the
// extracted cache image against ground-truth machine code" is a real
// byte-for-byte comparison, not a simulation shortcut. VBA64 provides
// exactly the slice of the A64 architecture the paper's payloads use:
//
//   - 31 general-purpose 64-bit registers X0–X30 plus XZR,
//   - 32 128-bit vector registers V0–V31 (the §7.2 target),
//   - loads/stores of 8/32/64/128 bits,
//   - compare/branch control flow,
//   - DSB/ISB barriers, DC ZVA, DC CIVAC, IC IALLU cache maintenance,
//   - a RAMINDEX-style system-register interface into cache RAMs,
//     restricted to EL3 like the CP15 path described in §5.2.4,
//   - exception levels EL0–EL3.
//
// The binary encoding is our own (documented below) rather than real A64:
// re-implementing the genuine A64 encoder adds nothing to the attack
// physics being reproduced. DESIGN.md records the substitution.
package isa

import "fmt"

// Op is the 6-bit major opcode stored in instruction bits [31:26].
type Op uint32

// Major opcodes. Gaps are reserved.
const (
	OpInvalid Op = 0x00
	// F1: hw[25:24] imm16[23:8] rd[4:0]
	OpMOVZ Op = 0x01
	OpMOVK Op = 0x02
	OpMOVN Op = 0x03
	// F2: rm[25:21] rn[20:16] rd[4:0]
	OpADD  Op = 0x04
	OpSUB  Op = 0x05
	OpAND  Op = 0x06
	OpORR  Op = 0x07
	OpEOR  Op = 0x08
	OpLSLV Op = 0x09
	OpLSRV Op = 0x0A
	OpMUL  Op = 0x0B
	OpSUBS Op = 0x0C
	OpADDS Op = 0x0D
	// F3: imm12[25:14] rn[9:5] rd[4:0]
	OpADDI  Op = 0x10
	OpSUBI  Op = 0x11
	OpSUBSI Op = 0x12
	// F4: imm12[25:14] (scaled by access size) rn[9:5] rt[4:0]
	OpLDR  Op = 0x14
	OpSTR  Op = 0x15
	OpLDRW Op = 0x16
	OpSTRW Op = 0x17
	OpLDRB Op = 0x18
	OpSTRB Op = 0x19
	// F5: simm26[25:0] word offset
	OpB  Op = 0x20
	OpBL Op = 0x21
	// F6: cond[25:22] simm18[21:4]
	OpBCond Op = 0x22
	// F6b: simm21[25:5] rt[4:0]
	OpCBZ  Op = 0x23
	OpCBNZ Op = 0x24
	// system / misc
	OpRET     Op = 0x28 // rn[9:5]
	OpNOP     Op = 0x29
	OpHLT     Op = 0x2A // imm16[23:8]
	OpDSB     Op = 0x2B
	OpISB     Op = 0x2C
	OpMRS     Op = 0x2D // sysreg[20:5] rd[4:0]
	OpMSR     Op = 0x2E // sysreg[20:5] rt[4:0]
	OpDCZVA   Op = 0x2F // rt[4:0] = virtual address
	OpDCCIVAC Op = 0x30 // rt[4:0]
	OpICIALLU Op = 0x31
	// vector
	OpVMOVI Op = 0x38 // imm8[23:16] vd[4:0], byte replicated ×16
	OpVLDR  Op = 0x39 // F4 with 16-byte scaling, vt[4:0]
	OpVSTR  Op = 0x3A
	OpVEOR  Op = 0x3B // F2 on vector registers
	OpUMOV  Op = 0x3C // idx[10] vn[9:5] rd[4:0]: Xd = Vn.D[idx]
	OpINS   Op = 0x3D // idx[10] rn[9:5] vd[4:0]: Vd.D[idx] = Xn
)

// Cond is a 4-bit branch condition for OpBCond.
type Cond uint32

// Branch conditions. Signed comparisons use N⊕V-style semantics computed
// by SUBS/ADDS; unsigned use the carry flag.
const (
	EQ Cond = 0 // Z
	NE Cond = 1 // !Z
	LT Cond = 2 // N != V (signed <)
	GE Cond = 3 // N == V (signed >=)
	LO Cond = 4 // !C (unsigned <)
	HS Cond = 5 // C  (unsigned >=)
	GT Cond = 6 // !Z && N==V
	LE Cond = 7 // Z || N!=V
)

var condNames = map[Cond]string{EQ: "EQ", NE: "NE", LT: "LT", GE: "GE", LO: "LO", HS: "HS", GT: "GT", LE: "LE"}

func (c Cond) String() string {
	if s, ok := condNames[c]; ok {
		return s
	}
	return fmt.Sprintf("cond%d", uint32(c))
}

// XZR is the zero-register index: reads as zero, writes are discarded.
const XZR = 31

// System register identifiers for MRS/MSR.
const (
	SysCurrentEL uint32 = 0x000 // RO: current exception level
	SysCoreID    uint32 = 0x010 // RO: core number (MPIDR-style)
	SysCNT       uint32 = 0x020 // RO: instruction counter
	SysRAMINDEX  uint32 = 0x100 // WO at EL3: triggers a cache-RAM read
	SysRAMDATA0  uint32 = 0x101 // RO: low 64 bits of the last RAMINDEX read
	SysRAMSTATUS uint32 = 0x102 // RO: 0 = ok, 1 = fault (EL/TZ denied)
	SysSCRNS     uint32 = 0x200 // RW at EL3: non-secure state bit
)

var sysregNames = map[uint32]string{
	SysCurrentEL: "CURRENTEL",
	SysCoreID:    "COREID",
	SysCNT:       "CNT",
	SysRAMINDEX:  "RAMINDEX",
	SysRAMDATA0:  "RAMDATA0",
	SysRAMSTATUS: "RAMSTATUS",
	SysSCRNS:     "SCR_NS",
}

// SysRegName returns the assembler name of a system register id.
//
//voltvet:hotpath
func SysRegName(id uint32) string {
	if s, ok := sysregNames[id]; ok {
		return s
	}
	return fmt.Sprintf("S%#x", id)
}

// SysRegByName resolves an assembler system-register name.
func SysRegByName(name string) (uint32, bool) {
	for id, n := range sysregNames {
		if n == name {
			return id, true
		}
	}
	return 0, false
}

// RAMINDEX request encoding written via MSR RAMINDEX, Xt — our stand-in
// for the Cortex-A72 SYS #0,c15,c4,#0 operation (§6.1):
//
//	bits [63:56] RAM ID (see RAMID* constants)
//	bits [47:32] way
//	bits [31:0]  64-bit-word index within the way (set·wordsPerLine + word)
const (
	RAMIndexIDShift    = 56
	RAMIndexWayShift   = 32
	RAMIndexWayMask    = 0xFFFF
	RAMIndexIndexMask  = 0xFFFFFFFF
	RAMIndexIndexShift = 0
)

// RAM IDs readable through RAMINDEX, mirroring the Cortex-A72 TRM's
// internal-memory list at the granularity the paper uses.
const (
	RAMIDL1ITag  uint64 = 0x00
	RAMIDL1IData uint64 = 0x01
	RAMIDL1DTag  uint64 = 0x08
	RAMIDL1DData uint64 = 0x09
	RAMIDL2Tag   uint64 = 0x10
	RAMIDL2Data  uint64 = 0x11
	// RAMIDTLB and RAMIDBTB expose the translation and branch-target
	// buffers — two more of the "15 different internal RAMs" the paper
	// notes the Cortex-A72 exports through this interface. Their
	// contents are microarchitectural *history*, which Volt Boot turns
	// into an access-pattern side channel (Ablation E).
	RAMIDTLB uint64 = 0x18
	RAMIDBTB uint64 = 0x19
)

// RAMIndexRequest packs a RAMINDEX request word.
func RAMIndexRequest(ramID uint64, way, wordIndex int) uint64 {
	return ramID<<RAMIndexIDShift |
		uint64(way&RAMIndexWayMask)<<RAMIndexWayShift |
		uint64(uint32(wordIndex))
}

// UnpackRAMIndex splits a RAMINDEX request word.
//
//voltvet:hotpath
func UnpackRAMIndex(req uint64) (ramID uint64, way, wordIndex int) {
	return req >> RAMIndexIDShift,
		int(req >> RAMIndexWayShift & RAMIndexWayMask),
		int(uint32(req))
}

// Instr is a decoded instruction. Fields are used per-format; unused
// fields are zero.
type Instr struct {
	Op   Op
	Rd   int   // destination register (also Rt for loads/stores)
	Rn   int   // first source / base register
	Rm   int   // second source register
	Imm  int64 // immediate (sign-extended where the format is signed)
	Hw   int   // halfword shift selector for MOVZ/MOVK/MOVN (0–3)
	Cond Cond
	Sys  uint32 // system register id for MRS/MSR
	Idx  int    // 64-bit lane index for UMOV/INS
}

const (
	opShift = 26
	opMask  = 0x3F
)

// Encode packs the instruction into its 32-bit machine form. It panics on
// out-of-range fields — the assembler validates ranges and reports errors
// with source positions before calling Encode.
func (in Instr) Encode() uint32 {
	op := uint32(in.Op) << opShift
	r5 := func(r int, name string) uint32 {
		if r < 0 || r > 31 {
			panic(fmt.Sprintf("isa: register %s=%d out of range in %v", name, r, in.Op))
		}
		return uint32(r)
	}
	switch in.Op {
	case OpMOVZ, OpMOVK, OpMOVN:
		if in.Hw < 0 || in.Hw > 3 {
			panic("isa: hw out of range")
		}
		if in.Imm < 0 || in.Imm > 0xFFFF {
			panic("isa: imm16 out of range")
		}
		return op | uint32(in.Hw)<<24 | uint32(in.Imm)<<8 | r5(in.Rd, "rd")
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpLSLV, OpLSRV, OpMUL, OpSUBS, OpADDS, OpVEOR:
		return op | r5(in.Rm, "rm")<<21 | r5(in.Rn, "rn")<<16 | r5(in.Rd, "rd")
	case OpADDI, OpSUBI, OpSUBSI:
		if in.Imm < 0 || in.Imm > 0xFFF {
			panic("isa: imm12 out of range")
		}
		return op | uint32(in.Imm)<<14 | r5(in.Rn, "rn")<<5 | r5(in.Rd, "rd")
	case OpLDR, OpSTR, OpLDRW, OpSTRW, OpLDRB, OpSTRB, OpVLDR, OpVSTR:
		scale := int64(accessSize(in.Op))
		if in.Imm%scale != 0 {
			panic(fmt.Sprintf("isa: unaligned offset %d for %v", in.Imm, in.Op))
		}
		scaled := in.Imm / scale
		if scaled < 0 || scaled > 0xFFF {
			panic("isa: scaled offset out of range")
		}
		return op | uint32(scaled)<<14 | r5(in.Rn, "rn")<<5 | r5(in.Rd, "rt")
	case OpB, OpBL:
		if in.Imm < -(1<<25) || in.Imm >= 1<<25 {
			panic("isa: branch offset out of range")
		}
		return op | uint32(in.Imm)&0x03FFFFFF
	case OpBCond:
		if in.Imm < -(1<<17) || in.Imm >= 1<<17 {
			panic("isa: conditional branch offset out of range")
		}
		return op | uint32(in.Cond)<<22 | (uint32(in.Imm)&0x3FFFF)<<4
	case OpCBZ, OpCBNZ:
		if in.Imm < -(1<<20) || in.Imm >= 1<<20 {
			panic("isa: cbz offset out of range")
		}
		return op | (uint32(in.Imm)&0x1FFFFF)<<5 | r5(in.Rd, "rt")
	case OpRET:
		return op | r5(in.Rn, "rn")<<5
	case OpNOP, OpDSB, OpISB, OpICIALLU:
		return op
	case OpHLT:
		if in.Imm < 0 || in.Imm > 0xFFFF {
			panic("isa: hlt imm16 out of range")
		}
		return op | uint32(in.Imm)<<8
	case OpMRS, OpMSR:
		if in.Sys > 0xFFFF {
			panic("isa: sysreg id out of range")
		}
		return op | in.Sys<<5 | r5(in.Rd, "rd")
	case OpDCZVA, OpDCCIVAC:
		return op | r5(in.Rd, "rt")
	case OpVMOVI:
		if in.Imm < 0 || in.Imm > 0xFF {
			panic("isa: vmovi imm8 out of range")
		}
		return op | uint32(in.Imm)<<16 | r5(in.Rd, "vd")
	case OpUMOV, OpINS:
		if in.Idx < 0 || in.Idx > 1 {
			panic("isa: lane index out of range")
		}
		return op | uint32(in.Idx)<<10 | r5(in.Rn, "rn")<<5 | r5(in.Rd, "rd")
	default:
		panic(fmt.Sprintf("isa: cannot encode op %#x", uint32(in.Op)))
	}
}

// accessSize returns the memory access width in bytes for a load/store op.
//
//voltvet:hotpath
func accessSize(op Op) int {
	switch op {
	case OpLDR, OpSTR:
		return 8
	case OpLDRW, OpSTRW:
		return 4
	case OpLDRB, OpSTRB:
		return 1
	case OpVLDR, OpVSTR:
		return 16
	default:
		return 0
	}
}

//voltvet:hotpath
func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode unpacks a 32-bit machine word. Unknown opcodes yield an Instr
// with Op == OpInvalid; the CPU raises an undefined-instruction error when
// executing one, which is exactly what happens when a core branches into
// retained-but-random SRAM.
//
//voltvet:hotpath
func Decode(word uint32) Instr {
	op := Op(word >> opShift & opMask)
	in := Instr{Op: op}
	switch op {
	case OpMOVZ, OpMOVK, OpMOVN:
		in.Hw = int(word >> 24 & 3)
		in.Imm = int64(word >> 8 & 0xFFFF)
		in.Rd = int(word & 31)
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpLSLV, OpLSRV, OpMUL, OpSUBS, OpADDS, OpVEOR:
		in.Rm = int(word >> 21 & 31)
		in.Rn = int(word >> 16 & 31)
		in.Rd = int(word & 31)
	case OpADDI, OpSUBI, OpSUBSI:
		in.Imm = int64(word >> 14 & 0xFFF)
		in.Rn = int(word >> 5 & 31)
		in.Rd = int(word & 31)
	case OpLDR, OpSTR, OpLDRW, OpSTRW, OpLDRB, OpSTRB, OpVLDR, OpVSTR:
		in.Imm = int64(word>>14&0xFFF) * int64(accessSize(op))
		in.Rn = int(word >> 5 & 31)
		in.Rd = int(word & 31)
	case OpB, OpBL:
		in.Imm = signExtend(word&0x03FFFFFF, 26)
	case OpBCond:
		in.Cond = Cond(word >> 22 & 0xF)
		in.Imm = signExtend(word>>4&0x3FFFF, 18)
	case OpCBZ, OpCBNZ:
		in.Imm = signExtend(word>>5&0x1FFFFF, 21)
		in.Rd = int(word & 31)
	case OpRET:
		in.Rn = int(word >> 5 & 31)
	case OpNOP, OpDSB, OpISB, OpICIALLU:
	case OpHLT:
		in.Imm = int64(word >> 8 & 0xFFFF)
	case OpMRS, OpMSR:
		in.Sys = word >> 5 & 0xFFFF
		in.Rd = int(word & 31)
	case OpDCZVA, OpDCCIVAC:
		in.Rd = int(word & 31)
	case OpVMOVI:
		in.Imm = int64(word >> 16 & 0xFF)
		in.Rd = int(word & 31)
	case OpUMOV, OpINS:
		in.Idx = int(word >> 10 & 1)
		in.Rn = int(word >> 5 & 31)
		in.Rd = int(word & 31)
	default:
		in.Op = OpInvalid
	}
	return in
}

// NOPWord is the encoded NOP instruction, used by experiments that fill
// caches with NOP sleds (§7.1.1).
var NOPWord = Instr{Op: OpNOP}.Encode()
