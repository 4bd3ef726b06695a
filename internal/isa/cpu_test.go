package isa

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/sram"
)

// flatBus is a simple flat-memory Bus + SysOps for CPU unit tests.
type flatBus struct {
	mem       []byte
	zvaCalls  []uint64
	civacs    []uint64
	ialluN    int
	barriers  int
	ramindexF func(req uint64, el int) (uint64, bool)
}

func newFlatBus(size int) *flatBus { return &flatBus{mem: make([]byte, size)} }

func (b *flatBus) check(addr uint64, size int) error {
	if addr+uint64(size) > uint64(len(b.mem)) {
		return fmt.Errorf("flatBus: access %#x+%d out of range", addr, size)
	}
	return nil
}

func (b *flatBus) FetchInstr(core int, addr uint64) (uint32, error) {
	if err := b.check(addr, 4); err != nil {
		return 0, err
	}
	return uint32(b.mem[addr]) | uint32(b.mem[addr+1])<<8 | uint32(b.mem[addr+2])<<16 | uint32(b.mem[addr+3])<<24, nil
}

func (b *flatBus) Load(core int, addr uint64, size int) (uint64, error) {
	if err := b.check(addr, size); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b.mem[addr+uint64(i)]) << (8 * i)
	}
	return v, nil
}

func (b *flatBus) Store(core int, addr uint64, size int, v uint64) error {
	if err := b.check(addr, size); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		b.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return nil
}

func (b *flatBus) Load128(core int, addr uint64) ([2]uint64, error) {
	lo, err := b.Load(core, addr, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	hi, err := b.Load(core, addr+8, 8)
	return [2]uint64{lo, hi}, err
}

func (b *flatBus) Store128(core int, addr uint64, v [2]uint64) error {
	if err := b.Store(core, addr, 8, v[0]); err != nil {
		return err
	}
	return b.Store(core, addr+8, 8, v[1])
}

func (b *flatBus) DCZVA(core int, addr uint64) error {
	b.zvaCalls = append(b.zvaCalls, addr)
	return nil
}
func (b *flatBus) DCCIVAC(core int, addr uint64) error {
	b.civacs = append(b.civacs, addr)
	return nil
}
func (b *flatBus) ICIALLU(core int) { b.ialluN++ }
func (b *flatBus) Barrier(core int) { b.barriers++ }
func (b *flatBus) RAMIndexRead(core int, req uint64, el int) (uint64, bool) {
	if b.ramindexF != nil {
		return b.ramindexF(req, el)
	}
	return 0, true
}

func (b *flatBus) loadWords(addr uint64, words []uint32) {
	for i, w := range words {
		a := addr + uint64(i)*4
		b.mem[a] = byte(w)
		b.mem[a+1] = byte(w >> 8)
		b.mem[a+2] = byte(w >> 16)
		b.mem[a+3] = byte(w >> 24)
	}
}

// plainRegs is a powered, zeroed register array for CPUs that need no
// retention physics.
func plainRegs() *sram.Array {
	a := sram.NewArray(sim.NewEnv(), "test.regfile", RegFileBytes*8, 0)
	a.SetRail(1.0)
	a.Fill(0)
	return a
}

func newTestCPU(t testing.TB, words []uint32) *CPU {
	t.Helper()
	bus := newFlatBus(1 << 20)
	base := uint64(0x80000)
	bus.loadWords(base, words)
	cpu := NewCPU(0, plainRegs(), bus, bus)
	cpu.Reset(base)
	return cpu
}

func mustAssemble(t testing.TB, base uint64, src string) []uint32 {
	t.Helper()
	words, err := Assemble(base, src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return words
}

func runProgram(t testing.TB, src string) *CPU {
	t.Helper()
	words := mustAssemble(t, 0x80000, src)
	cpu := newTestCPU(t, words)
	if _, err := cpu.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cpu
}

func TestArithmeticProgram(t *testing.T) {
	cpu := runProgram(t, `
        MOVZ X0, #7
        MOVZ X1, #5
        ADD X2, X0, X1     ; 12
        SUB X3, X0, X1     ; 2
        MUL X4, X0, X1     ; 35
        AND X5, X0, X1     ; 5
        ORR X6, X0, X1     ; 7
        EOR X7, X0, X1     ; 2
        MOVZ X8, #2
        LSL X9, X0, X8     ; 28
        LSR X10, X0, X8    ; 1
        HLT #0
    `)
	want := map[int]uint64{2: 12, 3: 2, 4: 35, 5: 5, 6: 7, 7: 2, 9: 28, 10: 1}
	for r, v := range want {
		if got := cpu.X(r); got != v {
			t.Errorf("X%d = %d, want %d", r, got, v)
		}
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..10 = 55
	cpu := runProgram(t, `
        MOVZ X0, #10
        MOVZ X1, #0
loop:   ADD X1, X1, X0
        SUBI X0, X0, #1
        CBNZ X0, loop
        HLT #0
    `)
	if cpu.X(1) != 55 {
		t.Fatalf("sum = %d, want 55", cpu.X(1))
	}
}

func TestMemoryAccessSizes(t *testing.T) {
	cpu := runProgram(t, `
        LDIMM X0, #0x1122334455667788
        MOVZ X1, #0x4000
        STR X0, [X1]
        LDRB X2, [X1]        ; 0x88
        LDRW X3, [X1, #4]    ; 0x11223344
        LDR X4, [X1]
        MOVZ X5, #0xFF
        STRB X5, [X1, #1]
        LDR X6, [X1]         ; 0x112233445566FF88
        HLT #0
    `)
	if cpu.X(2) != 0x88 {
		t.Errorf("LDRB = %#x", cpu.X(2))
	}
	if cpu.X(3) != 0x11223344 {
		t.Errorf("LDRW = %#x", cpu.X(3))
	}
	if cpu.X(4) != 0x1122334455667788 {
		t.Errorf("LDR = %#x", cpu.X(4))
	}
	if cpu.X(6) != 0x112233445566FF88 {
		t.Errorf("after STRB: %#x", cpu.X(6))
	}
}

func TestConditionalBranches(t *testing.T) {
	// Classify 3 vs 7 with every condition and accumulate a bitmask of
	// branches taken.
	cpu := runProgram(t, `
        MOVZ X0, #3
        MOVZ X1, #7
        MOVZ X9, #0
        CMP X0, X1
        B.LT lt_ok
        HLT #1
lt_ok:  ADDI X9, X9, #1
        CMP X1, X0
        B.GT gt_ok
        HLT #2
gt_ok:  ADDI X9, X9, #2
        CMP X0, X0
        B.EQ eq_ok
        HLT #3
eq_ok:  ADDI X9, X9, #4
        CMP X0, X1
        B.NE ne_ok
        HLT #4
ne_ok:  ADDI X9, X9, #8
        CMP X0, X1
        B.LO lo_ok
        HLT #5
lo_ok:  ADDI X9, X9, #16
        CMP X1, X0
        B.HS hs_ok
        HLT #6
hs_ok:  ADDI X9, X9, #32
        CMP X0, X1
        B.LE le_ok
        HLT #7
le_ok:  ADDI X9, X9, #64
        CMP X1, X0
        B.GE ge_ok
        HLT #8
ge_ok:  ADDI X9, X9, #128
        HLT #0
    `)
	if cpu.HaltCode != 0 {
		t.Fatalf("halted with code %d", cpu.HaltCode)
	}
	if cpu.X(9) != 255 {
		t.Fatalf("branch mask = %d, want 255", cpu.X(9))
	}
}

func TestSignedVsUnsignedComparison(t *testing.T) {
	// -1 (all ones) is signed-less-than 1 but unsigned-greater.
	cpu := runProgram(t, `
        MOVN X0, #0       ; X0 = -1
        MOVZ X1, #1
        MOVZ X9, #0
        CMP X0, X1
        B.LT signed_ok
        HLT #1
signed_ok:
        ADDI X9, X9, #1
        CMP X0, X1
        B.HS unsigned_ok
        HLT #2
unsigned_ok:
        ADDI X9, X9, #2
        HLT #0
    `)
	if cpu.HaltCode != 0 || cpu.X(9) != 3 {
		t.Fatalf("halt=%d mask=%d", cpu.HaltCode, cpu.X(9))
	}
}

func TestBLAndRET(t *testing.T) {
	cpu := runProgram(t, `
        MOVZ X0, #1
        BL sub
        ADDI X0, X0, #100
        HLT #0
sub:    ADDI X0, X0, #10
        RET
    `)
	if cpu.X(0) != 111 {
		t.Fatalf("X0 = %d, want 111", cpu.X(0))
	}
}

func TestXZRBehaviour(t *testing.T) {
	cpu := runProgram(t, `
        MOVZ X1, #5
        ADD XZR, X1, X1   ; write discarded
        ADD X2, XZR, X1   ; X2 = 5
        HLT #0
    `)
	if cpu.X(2) != 5 {
		t.Fatalf("X2 = %d", cpu.X(2))
	}
}

func TestVectorRegisters(t *testing.T) {
	cpu := runProgram(t, `
        VMOVI V0, #0xAA
        VMOVI V1, #0xFF
        VEOR V2, V0, V1       ; 0x55 pattern
        UMOV X0, V2, #0
        UMOV X1, V2, #1
        LDIMM X2, #0xDEADBEEFCAFEF00D
        INS V3, X2, #1
        UMOV X3, V3, #1
        MOVZ X4, #0x4000
        VSTR V0, [X4]
        VLDR V5, [X4]
        UMOV X5, V5, #0
        HLT #0
    `)
	if cpu.X(0) != 0x5555555555555555 || cpu.X(1) != 0x5555555555555555 {
		t.Fatalf("VEOR lanes = %#x %#x", cpu.X(0), cpu.X(1))
	}
	if cpu.X(3) != 0xDEADBEEFCAFEF00D {
		t.Fatalf("INS/UMOV = %#x", cpu.X(3))
	}
	if cpu.X(5) != 0xAAAAAAAAAAAAAAAA {
		t.Fatalf("VSTR/VLDR = %#x", cpu.X(5))
	}
}

func TestSysRegs(t *testing.T) {
	words := mustAssemble(t, 0x80000, `
        MRS X0, CURRENTEL
        MRS X1, COREID
        MRS X2, CNT
        HLT #0
    `)
	bus := newFlatBus(1 << 20)
	bus.loadWords(0x80000, words)
	cpu := NewCPU(2, plainRegs(), bus, bus)
	cpu.Reset(0x80000)
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.X(0) != 3 {
		t.Errorf("CURRENTEL = %d, want 3", cpu.X(0))
	}
	if cpu.X(1) != 2 {
		t.Errorf("COREID = %d, want 2", cpu.X(1))
	}
	if cpu.X(2) != 2 { // CNT read after 2 retired instructions
		t.Errorf("CNT = %d, want 2", cpu.X(2))
	}
}

func TestRAMIndexPath(t *testing.T) {
	words := mustAssemble(t, 0x80000, `
        LDIMM X0, #0x0900000000000005   ; L1D data, way 0, word 5
        MSR RAMINDEX, X0
        DSB
        ISB
        MRS X1, RAMDATA0
        MRS X2, RAMSTATUS
        HLT #0
    `)
	bus := newFlatBus(1 << 20)
	bus.loadWords(0x80000, words)
	bus.ramindexF = func(req uint64, el int) (uint64, bool) {
		id, way, idx := UnpackRAMIndex(req)
		if id != RAMIDL1DData || way != 0 || idx != 5 || el != 3 {
			return 0, true
		}
		return 0xCAFEBABE, false
	}
	cpu := NewCPU(0, plainRegs(), bus, bus)
	cpu.Reset(0x80000)
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.X(1) != 0xCAFEBABE {
		t.Fatalf("RAMDATA0 = %#x", cpu.X(1))
	}
	if cpu.X(2) != 0 {
		t.Fatalf("RAMSTATUS = %d, want 0", cpu.X(2))
	}
	if bus.barriers != 2 {
		t.Fatalf("barriers = %d, want 2 (DSB+ISB)", bus.barriers)
	}
}

func TestRAMIndexFaultSetsStatus(t *testing.T) {
	words := mustAssemble(t, 0x80000, `
        MOVZ X0, #0
        MSR RAMINDEX, X0
        MRS X1, RAMDATA0
        MRS X2, RAMSTATUS
        HLT #0
    `)
	bus := newFlatBus(1 << 20)
	bus.loadWords(0x80000, words)
	// default ramindexF faults
	cpu := NewCPU(0, plainRegs(), bus, bus)
	cpu.Reset(0x80000)
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.X(1) != 0 || cpu.X(2) != 1 {
		t.Fatalf("fault latch wrong: data=%#x status=%d", cpu.X(1), cpu.X(2))
	}
}

func TestCacheMaintenanceOps(t *testing.T) {
	words := mustAssemble(t, 0x80000, `
        MOVZ X0, #0x4000
        DC ZVA, X0
        DC CIVAC, X0
        IC IALLU
        HLT #0
    `)
	bus := newFlatBus(1 << 20)
	bus.loadWords(0x80000, words)
	cpu := NewCPU(0, plainRegs(), bus, bus)
	cpu.Reset(0x80000)
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(bus.zvaCalls) != 1 || bus.zvaCalls[0] != 0x4000 {
		t.Fatalf("DC ZVA calls = %v", bus.zvaCalls)
	}
	if len(bus.civacs) != 1 || bus.civacs[0] != 0x4000 {
		t.Fatalf("DC CIVAC calls = %v", bus.civacs)
	}
	if bus.ialluN != 1 {
		t.Fatalf("IC IALLU count = %d", bus.ialluN)
	}
}

func TestSCRNSRequiresEL3(t *testing.T) {
	words := mustAssemble(t, 0x80000, `
        MOVZ X0, #1
        MSR SCR_NS, X0
        HLT #0
    `)
	bus := newFlatBus(1 << 20)
	bus.loadWords(0x80000, words)
	cpu := NewCPU(0, plainRegs(), bus, bus)
	cpu.Reset(0x80000)
	cpu.EL = 1
	if _, err := cpu.Run(100); err == nil {
		t.Fatal("SCR_NS write at EL1 should fault")
	}
	cpu.Reset(0x80000)
	if _, err := cpu.Run(100); err != nil {
		t.Fatalf("SCR_NS write at EL3 should succeed: %v", err)
	}
}

func TestWriteToReadOnlySysRegFaults(t *testing.T) {
	cpuSrcs := []string{
		"MSR CURRENTEL, X0\nHLT #0",
		"MSR RAMDATA0, X0\nHLT #0",
	}
	for _, src := range cpuSrcs {
		words := mustAssemble(t, 0x80000, src)
		cpu := newTestCPU(t, words)
		if _, err := cpu.Run(10); err == nil {
			t.Errorf("program %q should fault", src)
		}
	}
}

func TestUndefinedInstruction(t *testing.T) {
	cpu := newTestCPU(t, []uint32{0xFFFFFFFF})
	err := cpu.Step()
	var ue *UndefinedError
	if !errors.As(err, &ue) {
		t.Fatalf("expected UndefinedError, got %v", err)
	}
}

func TestRunawayDetection(t *testing.T) {
	cpu := newTestCPU(t, mustAssemble(t, 0x80000, "loop: B loop"))
	_, err := cpu.Run(1000)
	var re *RunawayError
	if !errors.As(err, &re) {
		t.Fatalf("expected RunawayError, got %v", err)
	}
}

func TestMemoryFaultPropagates(t *testing.T) {
	cpu := newTestCPU(t, mustAssemble(t, 0x80000, `
        LDIMM X0, #0xFFFFFFFF00000000
        LDR X1, [X0]
        HLT #0
    `))
	if _, err := cpu.Run(100); err == nil {
		t.Fatal("out-of-range load should fault")
	}
}

func TestResetPreservesRegisterBacking(t *testing.T) {
	// The paper's §7.2 mechanism: reset must not clear register SRAM.
	bus := newFlatBus(1 << 20)
	bus.loadWords(0, []uint32{Instr{Op: OpHLT}.Encode()})
	cpu := NewCPU(0, plainRegs(), bus, bus)
	cpu.SetV(7, [2]uint64{0xAAAA, 0xBBBB})
	cpu.Reset(0)
	if v := cpu.V(7); v[0] != 0xAAAA || v[1] != 0xBBBB {
		t.Fatalf("Reset clobbered vector register backing: %v", v)
	}
}

func TestHaltStopsExecution(t *testing.T) {
	cpu := runProgram(t, "HLT #9\nMOVZ X0, #1\n")
	if cpu.X(0) != 0 {
		t.Fatal("instruction after HLT executed")
	}
	if cpu.HaltCode != 9 {
		t.Fatalf("halt code = %d", cpu.HaltCode)
	}
	// further steps are no-ops
	if err := cpu.Step(); err != nil || cpu.Instret != 1 {
		t.Fatalf("step after halt: err=%v instret=%d", err, cpu.Instret)
	}
}

func BenchmarkInterpreterLoop(b *testing.B) {
	words := mustAssemble(b, 0x80000, `
        LDIMM X0, #100000
loop:   SUBI X0, X0, #1
        CBNZ X0, loop
        HLT #0
    `)
	for i := 0; i < b.N; i++ {
		cpu := newTestCPU(b, words)
		if _, err := cpu.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// Run executes until the core halts, faults, or maxInstr instructions
// retire. It returns the number of instructions retired during this call
// and the first error, if any. Exceeding maxInstr without halting returns
// a RunawayError so program bugs surface instead of hanging. The tests
// step bare CPUs with it; the machine runs cores through
// soc.SoC.RunCore.
func (c *CPU) Run(maxInstr uint64) (uint64, error) {
	var n uint64
	for !c.Halted && n < maxInstr {
		if err := c.Step(); err != nil {
			return n, err
		}
		n++
	}
	if !c.Halted && n >= maxInstr {
		return n, &RunawayError{PC: c.PC, Max: maxInstr}
	}
	return n, nil
}
