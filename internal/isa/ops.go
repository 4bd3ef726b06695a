package isa

import "fmt"

// The op table: the one description of every opcode. The encoder, the
// decoder, the assembler, the disassembler and the op-class predicates
// all read it, so an opcode's mnemonic, operand syntax, bit layout,
// access size and class are written down exactly once.

// Class is a set of op-class flags.
type Class uint8

// Op classes.
const (
	// ClassBranch marks ops that can redirect the PC.
	ClassBranch Class = 1 << iota
	// ClassEndsBlock marks ops that end straight-line code: the
	// branches and HLT.
	ClassEndsBlock
	// ClassGPRDest marks ops that write the general-purpose register Rd.
	ClassGPRDest
	// ClassLoad and ClassStore mark ops that read or write memory.
	ClassLoad
	ClassStore
	// ClassSystem marks ops that write a system register or maintain a
	// cache (MSR, DC, IC).
	ClassSystem
)

// member names the Instr field an operand decodes into.
type member uint8

const (
	mNone member = iota // no field: a fixed operation name
	mRd
	mRn
	mRm
	mImm
	mHw
	mCond
	mSys
	mIdx
	nMembers
)

// values returns in's fields indexed by member.
func (in Instr) values() [nMembers]int64 {
	return [nMembers]int64{
		mRd: int64(in.Rd), mRn: int64(in.Rn), mRm: int64(in.Rm), mImm: in.Imm,
		mHw: int64(in.Hw), mCond: int64(in.Cond), mSys: int64(in.Sys), mIdx: int64(in.Idx),
	}
}

// set stores v in the field m names.
func (in *Instr) set(m member, v int64) {
	switch m {
	case mRd:
		in.Rd = int(v)
	case mRn:
		in.Rn = int(v)
	case mRm:
		in.Rm = int(v)
	case mImm:
		in.Imm = v
	case mHw:
		in.Hw = int(v)
	case mCond:
		in.Cond = Cond(v)
	case mSys:
		in.Sys = uint32(v)
	case mIdx:
		in.Idx = int(v)
	}
}

// field is an operand's bit field: width bits at lsb, sign-extended when
// signed, holding the operand's value divided by scale.
type field struct {
	to     member
	lsb    uint8
	width  uint8
	signed bool
	scale  uint8
}

// decode extracts the field's value from an instruction word. The shift
// counts are masked to their ranges so the shifts compile to single
// instructions.
func (f *field) decode(word uint32) int64 {
	v := int64(word>>(f.lsb&31)) & (1<<(f.width&63) - 1)
	if f.signed {
		v = v << ((64 - f.width) & 63) >> ((64 - f.width) & 63)
	}
	return v * int64(f.scale)
}

// encode places v, which must pass check, in the field.
func (f *field) encode(v int64) uint32 {
	return uint32(v/int64(f.scale)) & (1<<f.width - 1) << f.lsb
}

// check reports why the field cannot hold v, if it cannot.
func (f *field) check(v int64) error {
	scale := int64(f.scale)
	lo, hi := int64(0), int64(1)<<f.width-1
	if f.signed {
		lo, hi = -1<<(f.width-1), 1<<(f.width-1)-1
	}
	switch {
	case v%scale != 0:
		return fmt.Errorf("%d is not a multiple of %d", v, scale)
	case v < lo*scale || v > hi*scale:
		return fmt.Errorf("%d is out of range %d..%d", v, lo*scale, hi*scale)
	}
	return nil
}

// syntax is how an operand is written in assembly source.
type syntax uint8

const (
	synX      syntax = iota // general-purpose register: X0–X30, XZR
	synV                    // vector register: V0–V31
	synHex                  // immediate shown in hex: #0xff
	synDec                  // immediate shown in decimal: #255
	synShift                // halfword shift LSL #0/16/32/48; the field holds shift/16
	synMem                  // base register of a memory operand [Xn, #off]
	synOff                  // byte offset inside the preceding synMem operand's brackets
	synTarget               // branch target: a label or .±n words
	synCond                 // condition, written as the mnemonic's suffix: B.NE
	synSys                  // system register name: RAMINDEX
	synName                 // fixed operation name: ZVA in DC ZVA, Xt
)

// Whether a trailing operand may be left out of the source, where it
// takes its operand's def value.
const (
	required = iota
	optional // always rendered
	elided   // rendered only when it differs from def
)

// operand is one operand of an op, in source order.
type operand struct {
	syn  syntax
	opt  uint8
	def  int64
	name string // synName: the operation name
	f    field
}

// opSpec is one op-table entry. An empty mnemonic marks an unassigned
// opcode.
type opSpec struct {
	mn    string
	args  []operand
	size  uint8 // memory access size in bytes (loads and stores)
	class Class
}

func ufield(to member, lsb, width uint8) field {
	return field{to: to, lsb: lsb, width: width, scale: 1}
}

func xreg(to member, lsb uint8) operand { return operand{syn: synX, f: ufield(to, lsb, 5)} }
func vreg(to member, lsb uint8) operand { return operand{syn: synV, f: ufield(to, lsb, 5)} }

// target is a signed word displacement of width bits at lsb.
func target(lsb, width uint8) operand {
	return operand{syn: synTarget, f: field{to: mImm, lsb: lsb, width: width, signed: true, scale: 1}}
}

// memArgs is a load or store of size bytes: Rt, then [Xn, #off] with the
// offset scaled by the access size.
func memArgs(rt operand, size uint8) []operand {
	return []operand{rt, {syn: synMem, f: ufield(mRn, 5, 5)},
		{syn: synOff, f: field{to: mImm, lsb: 14, width: 12, scale: size}}}
}

func opName(name string) operand { return operand{syn: synName, name: name, f: ufield(mNone, 0, 0)} }

// Operand lists shared by the ops of one format.
var (
	movWide = []operand{xreg(mRd, 0), {syn: synHex, f: ufield(mImm, 8, 16)},
		{syn: synShift, opt: elided, f: ufield(mHw, 24, 2)}}
	xReg3  = []operand{xreg(mRd, 0), xreg(mRn, 16), xreg(mRm, 21)}
	xImm12 = []operand{xreg(mRd, 0), xreg(mRn, 5), {syn: synDec, f: ufield(mImm, 14, 12)}}
)

const branch = ClassBranch | ClassEndsBlock

// ops is the op table, indexed by opcode.
var ops = [opMask + 1]opSpec{
	OpMOVZ: {mn: "MOVZ", args: movWide, class: ClassGPRDest},
	OpMOVK: {mn: "MOVK", args: movWide, class: ClassGPRDest},
	OpMOVN: {mn: "MOVN", args: movWide, class: ClassGPRDest},

	OpADD:  {mn: "ADD", args: xReg3, class: ClassGPRDest},
	OpSUB:  {mn: "SUB", args: xReg3, class: ClassGPRDest},
	OpAND:  {mn: "AND", args: xReg3, class: ClassGPRDest},
	OpORR:  {mn: "ORR", args: xReg3, class: ClassGPRDest},
	OpEOR:  {mn: "EOR", args: xReg3, class: ClassGPRDest},
	OpLSLV: {mn: "LSL", args: xReg3, class: ClassGPRDest},
	OpLSRV: {mn: "LSR", args: xReg3, class: ClassGPRDest},
	OpMUL:  {mn: "MUL", args: xReg3, class: ClassGPRDest},
	OpSUBS: {mn: "SUBS", args: xReg3, class: ClassGPRDest},
	OpADDS: {mn: "ADDS", args: xReg3, class: ClassGPRDest},

	OpADDI:  {mn: "ADDI", args: xImm12, class: ClassGPRDest},
	OpSUBI:  {mn: "SUBI", args: xImm12, class: ClassGPRDest},
	OpSUBSI: {mn: "SUBSI", args: xImm12, class: ClassGPRDest},

	OpLDR:  {mn: "LDR", args: memArgs(xreg(mRd, 0), 8), size: 8, class: ClassGPRDest | ClassLoad},
	OpSTR:  {mn: "STR", args: memArgs(xreg(mRd, 0), 8), size: 8, class: ClassStore},
	OpLDRW: {mn: "LDRW", args: memArgs(xreg(mRd, 0), 4), size: 4, class: ClassGPRDest | ClassLoad},
	OpSTRW: {mn: "STRW", args: memArgs(xreg(mRd, 0), 4), size: 4, class: ClassStore},
	OpLDRB: {mn: "LDRB", args: memArgs(xreg(mRd, 0), 1), size: 1, class: ClassGPRDest | ClassLoad},
	OpSTRB: {mn: "STRB", args: memArgs(xreg(mRd, 0), 1), size: 1, class: ClassStore},

	OpB:     {mn: "B", args: []operand{target(0, 26)}, class: branch},
	OpBL:    {mn: "BL", args: []operand{target(0, 26)}, class: branch},
	OpBCond: {mn: "B", args: []operand{{syn: synCond, f: ufield(mCond, 22, 4)}, target(4, 18)}, class: branch},
	OpCBZ:   {mn: "CBZ", args: []operand{xreg(mRd, 0), target(5, 21)}, class: branch},
	OpCBNZ:  {mn: "CBNZ", args: []operand{xreg(mRd, 0), target(5, 21)}, class: branch},

	OpRET:     {mn: "RET", args: []operand{{syn: synX, opt: elided, def: 30, f: ufield(mRn, 5, 5)}}, class: branch},
	OpNOP:     {mn: "NOP"},
	OpHLT:     {mn: "HLT", args: []operand{{syn: synDec, opt: optional, f: ufield(mImm, 8, 16)}}, class: ClassEndsBlock},
	OpDSB:     {mn: "DSB"},
	OpISB:     {mn: "ISB"},
	OpMRS:     {mn: "MRS", args: []operand{xreg(mRd, 0), {syn: synSys, f: ufield(mSys, 5, 16)}}, class: ClassGPRDest},
	OpMSR:     {mn: "MSR", args: []operand{{syn: synSys, f: ufield(mSys, 5, 16)}, xreg(mRd, 0)}, class: ClassSystem},
	OpDCZVA:   {mn: "DC", args: []operand{opName("ZVA"), xreg(mRd, 0)}, class: ClassSystem},
	OpDCCIVAC: {mn: "DC", args: []operand{opName("CIVAC"), xreg(mRd, 0)}, class: ClassSystem},
	OpICIALLU: {mn: "IC", args: []operand{opName("IALLU")}, class: ClassSystem},

	OpVMOVI: {mn: "VMOVI", args: []operand{vreg(mRd, 0), {syn: synHex, f: ufield(mImm, 16, 8)}}},
	OpVLDR:  {mn: "VLDR", args: memArgs(vreg(mRd, 0), 16), size: 16, class: ClassLoad},
	OpVSTR:  {mn: "VSTR", args: memArgs(vreg(mRd, 0), 16), size: 16, class: ClassStore},
	OpVEOR:  {mn: "VEOR", args: []operand{vreg(mRd, 0), vreg(mRn, 16), vreg(mRm, 21)}},
	OpUMOV:  {mn: "UMOV", args: []operand{xreg(mRd, 0), vreg(mRn, 5), {syn: synDec, f: ufield(mIdx, 10, 1)}}, class: ClassGPRDest},
	OpINS:   {mn: "INS", args: []operand{vreg(mRd, 0), xreg(mRn, 5), {syn: synDec, f: ufield(mIdx, 10, 1)}}},
}

// spec returns op's table entry; an op outside the 6-bit opcode space
// reads as unassigned.
func (op Op) spec() *opSpec {
	if op > opMask {
		op = OpInvalid
	}
	return &ops[op]
}

// Class returns op's class flags.
func (op Op) Class() Class { return op.spec().class }

// accessSize returns the memory access width in bytes for a load/store op.
func accessSize(op Op) int { return int(op.spec().size) }
