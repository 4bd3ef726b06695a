package isa

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// AsmError is an assembly failure annotated with the 1-based source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble translates VBA64 assembly source into machine words. base is
// the load address of the first instruction, used to resolve label
// displacements.
//
// Syntax summary:
//
//	label:                      ; labels end with ':'
//	  MOVZ X0, #0x10, LSL #16   ; comments start with ';' or '//'
//	  MOVK X0, #0xAA
//	  LDIMM X1, #0x123456789AB  ; pseudo: expands to MOVZ/MOVK sequence
//	  MOV X2, X1                ; pseudo: ORR X2, XZR, X1
//	  ADD X3, X2, X1
//	  ADDI X3, X3, #8
//	  LDR X4, [X3, #16]
//	  STR X4, [X3]
//	  CMP X3, X1                ; pseudo: SUBS XZR, X3, X1
//	  CMPI X3, #0               ; pseudo: SUBSI XZR, X3, #0
//	  B.NE label
//	  CBZ X3, label
//	  BL func
//	  RET
//	  DSB
//	  ISB
//	  MRS X5, RAMDATA0
//	  MSR RAMINDEX, X5
//	  DC ZVA, X6
//	  DC CIVAC, X6
//	  IC IALLU
//	  VMOVI V0, #0xAA
//	  VSTR V0, [X1, #32]
//	  UMOV X7, V0, #1
//	  INS V0, X7, #0
//	  HLT #0
//	  .word 0xDEADBEEF          ; literal data word
//
// LDIMM always expands to exactly four words (MOVZ + 3×MOVK) so that
// label arithmetic stays stable between passes.
func Assemble(base uint64, src string) ([]uint32, error) {
	lines := strings.Split(src, "\n")

	type item struct {
		line  int
		text  string
		label string
	}
	var items []item
	for i, raw := range lines {
		text := raw
		if idx := strings.Index(text, ";"); idx >= 0 {
			text = text[:idx]
		}
		if idx := strings.Index(text, "//"); idx >= 0 {
			text = text[:idx]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		// A line may carry "label: instr".
		for {
			colon := strings.Index(text, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(text[:colon])
			if label == "" || strings.ContainsAny(label, " \t,[]#") {
				break // ':' inside something else; leave to the parser to reject
			}
			items = append(items, item{line: i + 1, label: label})
			text = strings.TrimSpace(text[colon+1:])
		}
		if text != "" {
			items = append(items, item{line: i + 1, text: text})
		}
	}

	// Pass 1: assign addresses to labels. Every instruction is 4 bytes;
	// pseudo LDIMM is 16; .word is 4.
	labels := map[string]uint64{}
	pc := base
	for _, it := range items {
		if it.label != "" {
			if _, dup := labels[it.label]; dup {
				return nil, &AsmError{it.line, "duplicate label " + it.label}
			}
			labels[it.label] = pc
		} else if mn, _ := splitMnemonic(it.text); mn == "LDIMM" {
			pc += 16
		} else {
			pc += 4
		}
	}

	// Pass 2: encode.
	var out []uint32
	pc = base
	for _, it := range items {
		if it.label != "" {
			continue
		}
		words, err := encodeLine(it.text, pc, labels)
		if err != nil {
			return nil, &AsmError{it.line, err.Error()}
		}
		out = append(out, words...)
		pc += uint64(len(words)) * 4
	}
	return out, nil
}

func splitMnemonic(text string) (mnemonic, rest string) {
	sp := strings.IndexAny(text, " \t")
	if sp < 0 {
		return strings.ToUpper(text), ""
	}
	return strings.ToUpper(text[:sp]), strings.TrimSpace(text[sp+1:])
}

// operands splits the operand list on commas, respecting [] bracketing.
func operands(rest string) []string {
	if rest == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(rest[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(rest[start:]))
	return out
}

func parseXReg(s string) (int, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	if u == "XZR" {
		return XZR, nil
	}
	digits, ok := strings.CutPrefix(u, "X")
	if n, err := strconv.Atoi(digits); ok && err == nil && n >= 0 && n <= 30 {
		return n, nil
	}
	return 0, fmt.Errorf("bad X register %q", s)
}

func parseVReg(s string) (int, error) {
	digits, ok := strings.CutPrefix(strings.ToUpper(strings.TrimSpace(s)), "V")
	if n, err := strconv.Atoi(digits); ok && err == nil && n >= 0 && n <= 31 {
		return n, nil
	}
	return 0, fmt.Errorf("bad V register %q", s)
}

func parseImm(s string) (int64, error) {
	u, ok := strings.CutPrefix(strings.TrimSpace(s), "#")
	if !ok {
		return 0, fmt.Errorf("immediate must start with '#': %q", s)
	}
	digits, neg := strings.CutPrefix(u, "-")
	v, err := strconv.ParseUint(digits, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q: %v", s, err)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// parseMem parses "[Xn]" or "[Xn, #off]".
func parseMem(s string) (rn int, off int64, err error) {
	u := strings.TrimSpace(s)
	if !strings.HasPrefix(u, "[") || !strings.HasSuffix(u, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	base, offset, hasOffset := strings.Cut(u[1:len(u)-1], ",")
	if rn, err = parseXReg(base); err == nil && hasOffset {
		off, err = parseImm(offset)
	}
	return rn, off, err
}

// branchTarget resolves a label or ".+n"/".-n" relative target to a word
// displacement from pc.
func branchTarget(s string, pc uint64, labels map[string]uint64) (int64, error) {
	u := strings.TrimSpace(s)
	if strings.HasPrefix(u, ".") {
		n, err := strconv.ParseInt(u[1:], 0, 64)
		if err != nil {
			return 0, fmt.Errorf("bad relative target %q", s)
		}
		return n, nil
	}
	addr, ok := labels[u]
	if !ok {
		return 0, fmt.Errorf("undefined label %q", u)
	}
	// Every line assembles to whole words, so labels and pc are both
	// base plus a multiple of 4.
	return (int64(addr) - int64(pc)) / 4, nil
}

// encodeLine assembles one source line: a pseudo-op, or one instruction
// of the op table.
func encodeLine(text string, pc uint64, labels map[string]uint64) ([]uint32, error) {
	mn, rest := splitMnemonic(text)
	args := operands(rest)
	switch mn {
	case ".WORD":
		if len(args) != 1 {
			return nil, fmt.Errorf(".word expects 1 operand, got %d", len(args))
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(args[0], "#"), 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad .word value %q", args[0])
		}
		return []uint32{uint32(v)}, nil

	case "LDIMM":
		if len(args) != 2 {
			return nil, fmt.Errorf("LDIMM expects 2 operands, got %d", len(args))
		}
		rd, err := parseXReg(args[0])
		if err != nil {
			return nil, err
		}
		val, ok := labels[strings.TrimSpace(args[1])] // labels never contain '#'
		if !ok {
			imm, err := parseImm(args[1])
			if err != nil {
				return nil, fmt.Errorf("LDIMM operand must be #imm or label: %w", err)
			}
			val = uint64(imm)
		}
		words := []uint32{Instr{Op: OpMOVZ, Rd: rd, Imm: int64(val & 0xFFFF)}.Encode()}
		for hw := 1; hw < 4; hw++ {
			words = append(words, Instr{Op: OpMOVK, Rd: rd, Imm: int64(val >> (16 * hw) & 0xFFFF), Hw: hw}.Encode())
		}
		return words, nil

	case "MOV", "CMP", "CMPI":
		// Pseudo-ops that spell one table instruction.
		if len(args) != 2 {
			return nil, fmt.Errorf("%s expects 2 operands, got %d", mn, len(args))
		}
		switch {
		case mn == "CMP":
			mn, args = "SUBS", []string{"XZR", args[0], args[1]}
		case mn == "CMPI":
			mn, args = "SUBSI", []string{"XZR", args[0], args[1]}
		case strings.HasPrefix(strings.TrimSpace(args[1]), "#"):
			mn = "MOVZ"
		default:
			mn, args = "ORR", []string{args[0], "XZR", args[1]}
		}
	}
	in, err := parseInstr(mn, args, pc, labels)
	if err != nil {
		return nil, err
	}
	return []uint32{in.Encode()}, nil
}

// parseInstr assembles one table instruction. Two ops share a mnemonic
// only where the source tells them apart: B and B.cond by the condition
// suffix, DC ZVA and DC CIVAC by the operation name.
func parseInstr(mn string, args []string, pc uint64, labels map[string]uint64) (Instr, error) {
	base, suffix, dotted := strings.Cut(mn, ".")
	var s *opSpec
	var op Op
	for i := range ops {
		var first operand
		if len(ops[i].args) > 0 {
			first = ops[i].args[0]
		}
		named := first.syn != synName || len(args) > 0 && strings.ToUpper(strings.TrimSpace(args[0])) == first.name
		if ops[i].mn == base && (first.syn == synCond) == dotted && named {
			s, op = &ops[i], Op(i)
			break
		}
	}
	if s == nil {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in := Instr{Op: op}
	next := 0
	for i, a := range s.args {
		var x int64
		var err error
		switch {
		case a.syn == synCond:
			x, err = a.parse(suffix, pc, labels)
		case a.syn == synOff:
			_, x, err = parseMem(args[next-1]) // the preceding memory operand
		case next < len(args):
			x, err = a.parse(args[next], pc, labels)
			next++
		case a.opt == required:
			err = errors.New("missing")
		default:
			x = a.def
		}
		if err == nil {
			err = a.f.check(x)
		}
		if err != nil {
			return Instr{}, fmt.Errorf("%s operand %d: %w", mn, i+1, err)
		}
		in.set(a.f.to, x)
	}
	if next < len(args) {
		return Instr{}, fmt.Errorf("%s takes %d operands, got %d", mn, next, len(args))
	}
	return in, nil
}

// parse reads one source operand.
func (a *operand) parse(tok string, pc uint64, labels map[string]uint64) (int64, error) {
	var r int
	var err error
	switch a.syn {
	case synX:
		r, err = parseXReg(tok)
	case synV:
		r, err = parseVReg(tok)
	case synMem:
		r, _, err = parseMem(tok)
	case synHex, synDec:
		return parseImm(tok)
	case synShift:
		f := strings.Fields(strings.ToUpper(tok))
		if len(f) != 2 || f[0] != "LSL" {
			return 0, fmt.Errorf("shift must be 'LSL #n', got %q", tok)
		}
		v, err := parseImm(f[1])
		if err == nil && v%16 != 0 {
			err = fmt.Errorf("shift must be 0/16/32/48, got %d", v)
		}
		return v / 16, err
	case synTarget:
		return branchTarget(tok, pc, labels)
	case synCond:
		c, ok := byName(condNames, tok)
		if !ok {
			return 0, fmt.Errorf("unknown condition %q", tok)
		}
		return int64(c), nil
	case synSys:
		id, ok := byName(sysregNames, strings.ToUpper(strings.TrimSpace(tok)))
		if !ok {
			return 0, fmt.Errorf("unknown system register %q", tok)
		}
		return int64(id), nil
	}
	return int64(r), err // synName: matched when the op was chosen
}

// byName returns the key names maps to name.
func byName[K comparable](names map[K]string, name string) (K, bool) {
	for k, n := range names {
		if n == name {
			return k, true
		}
	}
	var none K
	return none, false
}
