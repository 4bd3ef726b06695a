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
// The binary encoding is our own (the op table in ops.go) rather than
// real A64: re-implementing the genuine A64 encoder adds nothing to the
// attack physics being reproduced. DESIGN.md records the substitution.
package isa

import "fmt"

// Op is the 6-bit major opcode stored in instruction bits [31:26].
type Op uint32

// Major opcodes. Gaps are reserved. Each op's mnemonic, operands, bit
// fields, access size and class are its entry in the op table (ops.go).
const (
	OpInvalid Op = 0x00

	OpMOVZ Op = 0x01
	OpMOVK Op = 0x02
	OpMOVN Op = 0x03

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

	OpADDI  Op = 0x10
	OpSUBI  Op = 0x11
	OpSUBSI Op = 0x12

	OpLDR  Op = 0x14
	OpSTR  Op = 0x15
	OpLDRW Op = 0x16
	OpSTRW Op = 0x17
	OpLDRB Op = 0x18
	OpSTRB Op = 0x19

	OpB  Op = 0x20
	OpBL Op = 0x21

	OpBCond Op = 0x22

	OpCBZ  Op = 0x23
	OpCBNZ Op = 0x24
	// system / misc
	OpRET     Op = 0x28
	OpNOP     Op = 0x29
	OpHLT     Op = 0x2A
	OpDSB     Op = 0x2B
	OpISB     Op = 0x2C
	OpMRS     Op = 0x2D
	OpMSR     Op = 0x2E
	OpDCZVA   Op = 0x2F // Xt = virtual address
	OpDCCIVAC Op = 0x30
	OpICIALLU Op = 0x31
	// vector
	OpVMOVI Op = 0x38 // imm8 replicated ×16 into Vd
	OpVLDR  Op = 0x39
	OpVSTR  Op = 0x3A
	OpVEOR  Op = 0x3B // Vd = Vn ^ Vm
	OpUMOV  Op = 0x3C // Xd = Vn.D[idx]
	OpINS   Op = 0x3D // Vd.D[idx] = Xn
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
func SysRegName(id uint32) string {
	if s, ok := sysregNames[id]; ok {
		return s
	}
	return fmt.Sprintf("S%#x", id)
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
	s := in.Op.spec()
	if s.mn == "" {
		panic(fmt.Sprintf("isa: cannot encode op %#x", uint32(in.Op)))
	}
	v := in.values()
	word := uint32(in.Op) << opShift
	for i := range s.args {
		f := &s.args[i].f
		if err := f.check(v[f.to]); err != nil {
			panic(fmt.Sprintf("isa: %s operand %d: %v", s.mn, i+1, err))
		}
		word |= f.encode(v[f.to])
	}
	return word
}

// Decode unpacks a 32-bit machine word. Unknown opcodes yield an Instr
// with Op == OpInvalid; the CPU raises an undefined-instruction error when
// executing one, which is exactly what happens when a core branches into
// retained-but-random SRAM.
func Decode(word uint32) Instr {
	op := Op(word >> opShift & opMask)
	s := &ops[op]
	if s.mn == "" {
		return Instr{}
	}
	in := Instr{Op: op}
	for i := range s.args {
		f := &s.args[i].f
		in.set(f.to, f.decode(word))
	}
	return in
}

// NOPWord is the encoded NOP instruction, used by experiments that fill
// caches with NOP sleds (§7.1.1).
var NOPWord = Instr{Op: OpNOP}.Encode()
