package isa

// Differential oracle for the op table: refDecode and refDisassemble are
// the hand-written per-format decoder and disassembler the table
// replaced, kept verbatim as the reference. Decode must agree with
// refDecode on every combination of the bits each opcode's operands
// use; Disassemble must agree with refDisassemble, and the assembler
// must read the reference rendering back to the canonical encoding, on
// a seeded sample of those words.

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// refUsedBits is, per opcode, the instruction bits below the opcode that
// its operands occupy, read off refDecode's formats. Every other bit
// below the opcode is ignored by the decoder and zero in the canonical
// encoding.
var refUsedBits = map[Op]uint32{
	OpMOVZ: 0x03FFFF1F, OpMOVK: 0x03FFFF1F, OpMOVN: 0x03FFFF1F,
	OpADD: 0x03FF001F, OpSUB: 0x03FF001F, OpAND: 0x03FF001F, OpORR: 0x03FF001F,
	OpEOR: 0x03FF001F, OpLSLV: 0x03FF001F, OpLSRV: 0x03FF001F, OpMUL: 0x03FF001F,
	OpSUBS: 0x03FF001F, OpADDS: 0x03FF001F, OpVEOR: 0x03FF001F,
	OpADDI: 0x03FFC3FF, OpSUBI: 0x03FFC3FF, OpSUBSI: 0x03FFC3FF,
	OpLDR: 0x03FFC3FF, OpSTR: 0x03FFC3FF, OpLDRW: 0x03FFC3FF, OpSTRW: 0x03FFC3FF,
	OpLDRB: 0x03FFC3FF, OpSTRB: 0x03FFC3FF, OpVLDR: 0x03FFC3FF, OpVSTR: 0x03FFC3FF,
	OpB: 0x03FFFFFF, OpBL: 0x03FFFFFF,
	OpBCond: 0x03FFFFF0,
	OpCBZ:   0x03FFFFFF, OpCBNZ: 0x03FFFFFF,
	OpRET: 0x000003E0,
	OpNOP: 0, OpDSB: 0, OpISB: 0, OpICIALLU: 0,
	OpHLT: 0x00FFFF00,
	OpMRS: 0x001FFFFF, OpMSR: 0x001FFFFF,
	OpDCZVA: 0x0000001F, OpDCCIVAC: 0x0000001F,
	OpVMOVI: 0x00FF001F,
	OpUMOV:  0x000007FF, OpINS: 0x000007FF,
}

const belowOp = 1<<opShift - 1

// TestDecodeMatchesReference enumerates every combination of each
// opcode's operand bits, with the ignored bits drawn from a seeded
// stream, and every unassigned opcode on a seeded sample of words.
func TestDecodeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 350M words; runs without -short")
	}
	for op := Op(0); op <= opMask; op++ {
		used, valid := refUsedBits[op]
		t.Run(fmt.Sprintf("op%#02x", uint32(op)), func(t *testing.T) {
			t.Parallel()
			rng := xrand.New(0x15A0 + uint64(op))
			top := uint32(op) << opShift
			if !valid {
				for i := 0; i < 1<<16; i++ {
					w := top | uint32(rng.Uint64())&belowOp
					if got, want := Decode(w), refDecode(w); got != want {
						t.Fatalf("Decode(%#08x) = %+v, reference %+v", w, got, want)
					}
				}
				return
			}
			free := belowOp &^ used
			n := 0
			for sub := uint32(0); ; sub = (sub - used) & used {
				w := top | sub
				if free != 0 {
					w |= uint32(rng.Uint64()) & free
				}
				if got, want := Decode(w), refDecode(w); got != want {
					t.Fatalf("Decode(%#08x) = %+v, reference %+v", w, got, want)
				}
				n++
				if sub == used {
					break
				}
			}
			if want := 1 << bits.OnesCount32(used); n != want {
				t.Fatalf("enumerated %d words, want %d", n, want)
			}
		})
	}
}

// refAssemblable reports whether the reference rendering of in is
// source the assembler accepts: it has no name for an unassigned
// system register id or an undefined branch condition.
func refAssemblable(in Instr) bool {
	switch in.Op {
	case OpMRS, OpMSR:
		_, ok := sysregNames[in.Sys]
		return ok
	case OpBCond:
		return in.Cond <= LE
	}
	return true
}

// TestDisassembleMatchesReference renders a seeded sample of each
// opcode's words (plus every named system register for MRS and MSR)
// with both disassemblers, and assembles the reference rendering back:
// it must give the word with its ignored bits cleared.
func TestDisassembleMatchesReference(t *testing.T) {
	const perOp = 4096
	for op := Op(0); op <= opMask; op++ {
		used, valid := refUsedBits[op]
		rng := xrand.New(0xD15A + uint64(op))
		top := uint32(op) << opShift
		var words []uint32
		for i := 0; i < perOp; i++ {
			words = append(words, top|uint32(rng.Uint64())&belowOp)
		}
		if op == OpMRS || op == OpMSR {
			for _, id := range []uint32{SysCurrentEL, SysCoreID, SysCNT, SysRAMINDEX, SysRAMDATA0, SysRAMSTATUS, SysSCRNS} {
				words = append(words, top|id<<5|uint32(rng.Intn(32)))
			}
		}
		var src strings.Builder
		var want []uint32
		for _, w := range words {
			in, ref := Decode(w), refDecode(w)
			if got, exp := Disassemble(in), refDisassemble(ref); got != exp {
				t.Fatalf("Disassemble(Decode(%#08x)) = %q, reference %q", w, got, exp)
			}
			exp := refDisassembleWord(w)
			if got := DisassembleWord(w); got != exp {
				t.Fatalf("DisassembleWord(%#08x) = %q, reference %q", w, got, exp)
			}
			if !valid {
				src.WriteString(exp + "\n")
				want = append(want, w)
			} else if refAssemblable(ref) {
				src.WriteString(exp + "\n")
				want = append(want, top|w&used)
			}
		}
		got, err := Assemble(0x80000, src.String())
		if err != nil {
			t.Fatalf("op %#02x: assembling the reference rendering: %v", uint32(op), err)
		}
		if len(got) != len(want) {
			t.Fatalf("op %#02x: assembled %d words, want %d", uint32(op), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %#02x: %q assembled to %#08x, want %#08x", uint32(op),
					strings.Split(src.String(), "\n")[i], got[i], want[i])
			}
		}
	}
}

// refDecode is the reference decoder: one hand-written case per format.
func refDecode(word uint32) Instr {
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
		in.Imm = int64(word>>14&0xFFF) * int64(refAccessSize(op))
		in.Rn = int(word >> 5 & 31)
		in.Rd = int(word & 31)
	case OpB, OpBL:
		in.Imm = refSignExtend(word&0x03FFFFFF, 26)
	case OpBCond:
		in.Cond = Cond(word >> 22 & 0xF)
		in.Imm = refSignExtend(word>>4&0x3FFFF, 18)
	case OpCBZ, OpCBNZ:
		in.Imm = refSignExtend(word>>5&0x1FFFFF, 21)
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

func refAccessSize(op Op) int {
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

func refSignExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// refDisassemble is the reference disassembler: one hand-written case
// per op.
func refDisassemble(in Instr) string {
	x := func(r int) string {
		if r == XZR {
			return "XZR"
		}
		return fmt.Sprintf("X%d", r)
	}
	v := func(r int) string { return fmt.Sprintf("V%d", r) }
	switch in.Op {
	case OpMOVZ, OpMOVK, OpMOVN:
		name := map[Op]string{OpMOVZ: "MOVZ", OpMOVK: "MOVK", OpMOVN: "MOVN"}[in.Op]
		if in.Hw == 0 {
			return fmt.Sprintf("%s %s, #%#x", name, x(in.Rd), in.Imm)
		}
		return fmt.Sprintf("%s %s, #%#x, LSL #%d", name, x(in.Rd), in.Imm, in.Hw*16)
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpLSLV, OpLSRV, OpMUL, OpSUBS, OpADDS:
		name := map[Op]string{
			OpADD: "ADD", OpSUB: "SUB", OpAND: "AND", OpORR: "ORR", OpEOR: "EOR",
			OpLSLV: "LSL", OpLSRV: "LSR", OpMUL: "MUL", OpSUBS: "SUBS", OpADDS: "ADDS",
		}[in.Op]
		return fmt.Sprintf("%s %s, %s, %s", name, x(in.Rd), x(in.Rn), x(in.Rm))
	case OpVEOR:
		return fmt.Sprintf("VEOR %s, %s, %s", v(in.Rd), v(in.Rn), v(in.Rm))
	case OpADDI, OpSUBI, OpSUBSI:
		name := map[Op]string{OpADDI: "ADDI", OpSUBI: "SUBI", OpSUBSI: "SUBSI"}[in.Op]
		return fmt.Sprintf("%s %s, %s, #%d", name, x(in.Rd), x(in.Rn), in.Imm)
	case OpLDR, OpSTR, OpLDRW, OpSTRW, OpLDRB, OpSTRB:
		name := map[Op]string{
			OpLDR: "LDR", OpSTR: "STR", OpLDRW: "LDRW", OpSTRW: "STRW",
			OpLDRB: "LDRB", OpSTRB: "STRB",
		}[in.Op]
		if in.Imm == 0 {
			return fmt.Sprintf("%s %s, [%s]", name, x(in.Rd), x(in.Rn))
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", name, x(in.Rd), x(in.Rn), in.Imm)
	case OpVLDR, OpVSTR:
		name := map[Op]string{OpVLDR: "VLDR", OpVSTR: "VSTR"}[in.Op]
		if in.Imm == 0 {
			return fmt.Sprintf("%s %s, [%s]", name, v(in.Rd), x(in.Rn))
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", name, v(in.Rd), x(in.Rn), in.Imm)
	case OpB:
		return fmt.Sprintf("B .%+d", in.Imm)
	case OpBL:
		return fmt.Sprintf("BL .%+d", in.Imm)
	case OpBCond:
		return fmt.Sprintf("B.%s .%+d", in.Cond, in.Imm)
	case OpCBZ:
		return fmt.Sprintf("CBZ %s, .%+d", x(in.Rd), in.Imm)
	case OpCBNZ:
		return fmt.Sprintf("CBNZ %s, .%+d", x(in.Rd), in.Imm)
	case OpRET:
		if in.Rn == 30 {
			return "RET"
		}
		return fmt.Sprintf("RET %s", x(in.Rn))
	case OpNOP:
		return "NOP"
	case OpHLT:
		return fmt.Sprintf("HLT #%d", in.Imm)
	case OpDSB:
		return "DSB"
	case OpISB:
		return "ISB"
	case OpMRS:
		return fmt.Sprintf("MRS %s, %s", x(in.Rd), SysRegName(in.Sys))
	case OpMSR:
		return fmt.Sprintf("MSR %s, %s", SysRegName(in.Sys), x(in.Rd))
	case OpDCZVA:
		return fmt.Sprintf("DC ZVA, %s", x(in.Rd))
	case OpDCCIVAC:
		return fmt.Sprintf("DC CIVAC, %s", x(in.Rd))
	case OpICIALLU:
		return "IC IALLU"
	case OpVMOVI:
		return fmt.Sprintf("VMOVI %s, #%#x", v(in.Rd), in.Imm)
	case OpUMOV:
		return fmt.Sprintf("UMOV %s, %s, #%d", x(in.Rd), v(in.Rn), in.Idx)
	case OpINS:
		return fmt.Sprintf("INS %s, %s, #%d", v(in.Rd), x(in.Rn), in.Idx)
	default:
		return fmt.Sprintf(".word %#08x", uint32(in.Op)<<opShift)
	}
}

// refDisassembleWord is DisassembleWord over the reference pair.
func refDisassembleWord(word uint32) string {
	in := refDecode(word)
	if in.Op == OpInvalid {
		return fmt.Sprintf(".word %#08x", word)
	}
	return refDisassemble(in)
}
