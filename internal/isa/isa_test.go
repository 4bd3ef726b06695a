package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripSamples(t *testing.T) {
	samples := []Instr{
		{Op: OpMOVZ, Rd: 3, Imm: 0xBEEF, Hw: 2},
		{Op: OpMOVK, Rd: 30, Imm: 0xFFFF, Hw: 3},
		{Op: OpMOVN, Rd: 0, Imm: 0},
		{Op: OpADD, Rd: 1, Rn: 2, Rm: 3},
		{Op: OpSUBS, Rd: XZR, Rn: 5, Rm: 6},
		{Op: OpADDI, Rd: 7, Rn: 8, Imm: 0xFFF},
		{Op: OpLDR, Rd: 9, Rn: 10, Imm: 8 * 0xFFF},
		{Op: OpSTRB, Rd: 11, Rn: 12, Imm: 0x7F},
		{Op: OpB, Imm: -(1 << 25)},
		{Op: OpBL, Imm: 1<<25 - 1},
		{Op: OpBCond, Cond: LE, Imm: -5},
		{Op: OpCBZ, Rd: 13, Imm: 100},
		{Op: OpCBNZ, Rd: 14, Imm: -100},
		{Op: OpRET, Rn: 30},
		{Op: OpNOP},
		{Op: OpHLT, Imm: 42},
		{Op: OpDSB},
		{Op: OpISB},
		{Op: OpMRS, Rd: 15, Sys: SysRAMDATA0},
		{Op: OpMSR, Rd: 16, Sys: SysRAMINDEX},
		{Op: OpDCZVA, Rd: 17},
		{Op: OpDCCIVAC, Rd: 18},
		{Op: OpICIALLU},
		{Op: OpVMOVI, Rd: 19, Imm: 0xAA},
		{Op: OpVLDR, Rd: 20, Rn: 21, Imm: 16 * 5},
		{Op: OpVSTR, Rd: 22, Rn: 23, Imm: 0},
		{Op: OpVEOR, Rd: 24, Rn: 25, Rm: 26},
		{Op: OpUMOV, Rd: 27, Rn: 28, Idx: 1},
		{Op: OpINS, Rd: 29, Rn: 30, Idx: 0},
	}
	for _, in := range samples {
		got := Decode(in.Encode())
		if got != in {
			t.Errorf("round trip failed:\n in  %+v\n out %+v", in, got)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	bad := []Instr{
		{Op: OpMOVZ, Rd: 0, Imm: 0x10000},
		{Op: OpMOVZ, Rd: 0, Imm: 1, Hw: 4},
		{Op: OpADDI, Rd: 0, Rn: 0, Imm: 0x1000},
		{Op: OpLDR, Rd: 0, Rn: 0, Imm: 7}, // unaligned
		{Op: OpB, Imm: 1 << 25},
		{Op: OpVMOVI, Rd: 0, Imm: 256},
		{Op: OpUMOV, Rd: 0, Rn: 0, Idx: 2},
	}
	for _, in := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(%+v) should panic", in)
				}
			}()
			in.Encode()
		}()
	}
}

// Property: for arbitrary MOVZ-shaped fields, encode/decode round-trips.
func TestEncodeDecodeMOVZProperty(t *testing.T) {
	if err := quick.Check(func(rd uint8, imm uint16, hw uint8) bool {
		in := Instr{Op: OpMOVZ, Rd: int(rd % 32), Imm: int64(imm), Hw: int(hw % 4)}
		return Decode(in.Encode()) == in
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: branch displacements round-trip with sign extension.
func TestEncodeDecodeBranchProperty(t *testing.T) {
	if err := quick.Check(func(d int32) bool {
		disp := int64(d % (1 << 25))
		in := Instr{Op: OpB, Imm: disp}
		return Decode(in.Encode()) == in
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalid(t *testing.T) {
	// opcode 0x3F is unassigned
	if in := Decode(0xFFFFFFFF); in.Op != OpInvalid {
		t.Fatalf("expected OpInvalid, got %#x", uint32(in.Op))
	}
}

func TestDisassembleAssembleRoundTrip(t *testing.T) {
	program := []Instr{
		{Op: OpMOVZ, Rd: 0, Imm: 0x12, Hw: 1},
		{Op: OpMOVK, Rd: 0, Imm: 0x34},
		{Op: OpADD, Rd: 1, Rn: 0, Rm: 2},
		{Op: OpADDI, Rd: 1, Rn: 1, Imm: 8},
		{Op: OpLDR, Rd: 2, Rn: 1, Imm: 16},
		{Op: OpSTR, Rd: 2, Rn: 1},
		{Op: OpRET, Rn: 30},
		{Op: OpNOP},
		{Op: OpHLT, Imm: 3},
		{Op: OpDSB},
		{Op: OpISB},
		{Op: OpMRS, Rd: 5, Sys: SysRAMSTATUS},
		{Op: OpMSR, Rd: 6, Sys: SysRAMINDEX},
		{Op: OpDCZVA, Rd: 7},
		{Op: OpDCCIVAC, Rd: 8},
		{Op: OpICIALLU},
		{Op: OpVMOVI, Rd: 9, Imm: 0xFF},
		{Op: OpVLDR, Rd: 10, Rn: 11, Imm: 32},
		{Op: OpVSTR, Rd: 12, Rn: 13},
		{Op: OpVEOR, Rd: 1, Rn: 2, Rm: 3},
		{Op: OpUMOV, Rd: 14, Rn: 15, Idx: 1},
		{Op: OpINS, Rd: 16, Rn: 17, Idx: 0},
		{Op: OpSUBS, Rd: XZR, Rn: 1, Rm: 2},
	}
	var src strings.Builder
	for _, in := range program {
		src.WriteString(Disassemble(in))
		src.WriteByte('\n')
	}
	words, err := Assemble(0, src.String())
	if err != nil {
		t.Fatalf("assembling disassembly: %v\nsource:\n%s", err, src.String())
	}
	if len(words) != len(program) {
		t.Fatalf("got %d words, want %d", len(words), len(program))
	}
	for i, w := range words {
		if want := program[i].Encode(); w != want {
			t.Errorf("word %d: %#08x != %#08x (%s)", i, w, want, Disassemble(program[i]))
		}
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	src := `
        MOVZ X0, #5
loop:   SUBI X0, X0, #1
        CBNZ X0, loop
        HLT #0
`
	words, err := Assemble(0x1000, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 4 {
		t.Fatalf("want 4 words, got %d", len(words))
	}
	cb := Decode(words[2])
	if cb.Op != OpCBNZ || cb.Imm != -1 {
		t.Fatalf("CBNZ displacement = %d, want -1", cb.Imm)
	}
}

func TestAssembleLDIMM(t *testing.T) {
	words, err := Assemble(0, "LDIMM X3, #0x123456789ABCDEF0\nHLT #0\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 5 {
		t.Fatalf("LDIMM should expand to 4 words, got %d total", len(words))
	}
	cpu := newTestCPU(t, words)
	if _, err := cpu.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := cpu.X(3); got != 0x123456789ABCDEF0 {
		t.Fatalf("X3 = %#x", got)
	}
}

func TestAssembleLDIMMLabel(t *testing.T) {
	src := `
        LDIMM X0, data
        HLT #0
data:   .word 0xDEADBEEF
`
	words, err := Assemble(0x80000, src)
	if err != nil {
		t.Fatal(err)
	}
	// data label sits after 4 (LDIMM) + 1 (HLT) words
	wantAddr := uint64(0x80000 + 5*4)
	cpu := newTestCPU(t, words)
	cpu.PC = 0x80000
	if _, err := cpu.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := cpu.X(0); got != wantAddr {
		t.Fatalf("X0 = %#x, want %#x", got, wantAddr)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"FOO X1, X2",
		"MOVZ X1",
		"MOVZ X32, #1",
		"MOVZ X1, #0x10000",
		"B nowhere",
		"LDR X1, [X2, #7]",   // unaligned
		"ADDI X1, X2, #5000", // out of range
		"MRS X1, NOSUCHREG",
		"dup: NOP\ndup: NOP", // duplicate label
		"MOVZ X0, #1, LSR #16",
		"UMOV X0, V1, #2",
	}
	for _, src := range cases {
		if _, err := Assemble(0, src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

// TestAssembleRejectsUnencodable: operands no field can hold, and
// operands an op does not take, are source errors, not panics in Encode
// or silently dropped words.
func TestAssembleRejectsUnencodable(t *testing.T) {
	cases := []string{
		"B .+33554432",
		"BL .-33554433",
		"B.NE .+131072",
		"CBZ X1, .-1048577",
		"HLT #65536",
		"HLT #-1",
		"HLT #1, #2",
		"NOP X1",
		"DSB #0",
		"RET X1, X2",
	}
	for _, src := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Assemble(%q) panicked: %v", src, r)
				}
			}()
			if words, err := Assemble(0, src); err == nil {
				t.Errorf("Assemble(%q) = %x, want an error", src, words)
			}
		}()
	}
}

func TestAssembleCommentsAndLabelsOnSameLine(t *testing.T) {
	src := "start: NOP ; trailing comment\n// full line comment\nB start\n"
	words, err := Assemble(0, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 2 {
		t.Fatalf("want 2 words, got %d", len(words))
	}
	if b := Decode(words[1]); b.Imm != -1 {
		t.Fatalf("B displacement = %d", b.Imm)
	}
}

func TestAsmErrorHasLineNumber(t *testing.T) {
	_, err := Assemble(0, "NOP\nNOP\nBADOP\n")
	ae, ok := err.(*AsmError)
	if !ok {
		t.Fatalf("expected *AsmError, got %T: %v", err, err)
	}
	if ae.Line != 3 {
		t.Fatalf("error line = %d, want 3", ae.Line)
	}
}

func TestRAMIndexPackUnpack(t *testing.T) {
	if err := quick.Check(func(way uint16, idx uint32) bool {
		req := RAMIndexRequest(RAMIDL1DData, int(way), int(idx))
		id, w, i := UnpackRAMIndex(req)
		return id == RAMIDL1DData && w == int(way) && i == int(idx)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDumpProgram(t *testing.T) {
	out := DumpProgram(0x1000, []uint32{NOPWord, Instr{Op: OpHLT, Imm: 1}.Encode()})
	if !strings.Contains(out, "0x00001000") {
		t.Fatalf("listing missing base address:\n%s", out)
	}
	if !strings.Contains(out, "NOP") || !strings.Contains(out, "HLT") {
		t.Fatalf("listing missing mnemonics:\n%s", out)
	}
}
