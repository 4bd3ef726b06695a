package isa

import (
	"fmt"
	"strings"
)

// Disassemble renders a decoded instruction in assembler syntax. The
// output round-trips through Assemble for every encodable instruction.
func Disassemble(in Instr) string {
	s := in.Op.spec()
	if s.mn == "" {
		return fmt.Sprintf(".word %#08x", uint32(in.Op)<<opShift)
	}
	v := in.values()
	var b strings.Builder
	b.WriteString(s.mn)
	sep := " "
	for _, a := range s.args {
		x := v[a.f.to]
		switch {
		case a.syn == synCond:
			b.WriteString("." + Cond(x).String())
			continue
		case a.syn == synOff:
			if x != 0 {
				fmt.Fprintf(&b, ", #%d", x)
			}
			b.WriteString("]")
			continue
		case a.opt == elided && x == a.def:
			continue
		}
		b.WriteString(sep)
		sep = ", "
		switch a.syn {
		case synX:
			b.WriteString(xName(x))
		case synV:
			fmt.Fprintf(&b, "V%d", x)
		case synHex:
			fmt.Fprintf(&b, "#%#x", x)
		case synDec:
			fmt.Fprintf(&b, "#%d", x)
		case synShift:
			fmt.Fprintf(&b, "LSL #%d", x*16)
		case synMem:
			b.WriteString("[" + xName(x))
		case synTarget:
			fmt.Fprintf(&b, ".%+d", x)
		case synSys:
			b.WriteString(SysRegName(uint32(x)))
		case synName:
			b.WriteString(a.name)
		}
	}
	return b.String()
}

func xName(r int64) string {
	if r == XZR {
		return "XZR"
	}
	return fmt.Sprintf("X%d", r)
}

// DisassembleWord decodes and renders one machine word.
func DisassembleWord(word uint32) string {
	in := Decode(word)
	if in.Op == OpInvalid {
		return fmt.Sprintf(".word %#08x", word)
	}
	return Disassemble(in)
}

// DumpProgram renders a code image as an address-annotated listing,
// useful for debugging extraction payloads.
func DumpProgram(base uint64, words []uint32) string {
	var b strings.Builder
	for i, w := range words {
		fmt.Fprintf(&b, "%#08x: %08x  %s\n", base+uint64(i)*4, w, DisassembleWord(w))
	}
	return b.String()
}
