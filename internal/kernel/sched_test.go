package kernel

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/soc"
)

// loadProgram assembles nothing — callers provide machine words — and
// writes them into DRAM at the given base.
func loadWords(s *soc.SoC, base uint64, words []uint32) {
	for i, w := range words {
		s.WriteDRAM(int(base)+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
}

// counterProgram increments X5 n times, marking V(tag) with a pattern
// first, then halts.
func counterProgram(t *testing.T, base uint64, tag byte, n int) []uint32 {
	t.Helper()
	src := fmt.Sprintf(`
        VMOVI V0, #%#x
        LDIMM X5, #0
        LDIMM X6, #%d
loop:   ADDI X5, X5, #1
        SUBI X6, X6, #1
        CBNZ X6, loop
        HLT #0
    `, tag, n)
	words, err := asmAt(base, src)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

func TestSchedulerRunsAllProcessesToCompletion(t *testing.T) {
	s := poweredSoC(t)
	sc := NewScheduler(s, 0, 500)
	bases := []uint64{0x90000, 0xA0000, 0xB0000}
	for i, base := range bases {
		loadWords(s, base, counterProgram(t, base, byte(0x10*(i+1)), 5000))
		sc.Add(&Process{Name: fmt.Sprintf("p%d", i), Entry: base})
	}
	last, err := sc.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if last != -1 {
		t.Fatalf("Run returned %d, want -1 (all done)", last)
	}
	for _, p := range sc.Processes() {
		if !p.Done {
			t.Fatalf("process %s not done", p.Name)
		}
		// Each ran its full loop: final X5 == 5000 is in the saved
		// context.
		if p.savedX[5] != 5000 {
			t.Fatalf("process %s X5 = %d, want 5000", p.Name, p.savedX[5])
		}
	}
	if sc.Switches < 3 {
		t.Fatalf("switches = %d, want several", sc.Switches)
	}
}

func TestSchedulerContextIsolation(t *testing.T) {
	s := poweredSoC(t)
	sc := NewScheduler(s, 0, 100) // small quantum: many interleavings
	loadWords(s, 0x90000, counterProgram(t, 0x90000, 0xAA, 3000))
	loadWords(s, 0xA0000, counterProgram(t, 0xA0000, 0xBB, 3000))
	sc.Add(&Process{Name: "a", Entry: 0x90000})
	sc.Add(&Process{Name: "b", Entry: 0xA0000})
	if _, err := sc.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	// Despite sharing X5/X6/V0 across hundreds of switches, both
	// processes computed their own results.
	for _, p := range sc.Processes() {
		if p.savedX[5] != 3000 {
			t.Fatalf("process %s X5 = %d — context leaked between processes", p.Name, p.savedX[5])
		}
	}
	a, b := sc.Processes()[0], sc.Processes()[1]
	if a.savedV[0][0] != 0xAAAAAAAAAAAAAAAA || b.savedV[0][0] != 0xBBBBBBBBBBBBBBBB {
		t.Fatalf("vector context mixed: a=%#x b=%#x", a.savedV[0][0], b.savedV[0][0])
	}
}

// The Volt Boot consequence: the register file physically holds the
// process that was on-core when the budget (≈ the power cut) hit.
func TestRegisterFileHoldsCurrentProcessAtCut(t *testing.T) {
	s := poweredSoC(t)
	sc := NewScheduler(s, 0, 1000)
	loadWords(s, 0x90000, counterProgram(t, 0x90000, 0xAA, 1_000_000))
	loadWords(s, 0xA0000, counterProgram(t, 0xA0000, 0xBB, 1_000_000))
	sc.Add(&Process{Name: "crypto", Entry: 0x90000})
	sc.Add(&Process{Name: "browser", Entry: 0xA0000})
	// Cut after an odd number of half-quanta so someone is mid-run.
	current, err := sc.Run(7_500)
	if err != nil {
		t.Fatal(err)
	}
	if current < 0 {
		t.Fatal("expected an interrupted process")
	}
	want := uint64(0xAAAAAAAAAAAAAAAA)
	if current == 1 {
		want = 0xBBBBBBBBBBBBBBBB
	}
	// Physically inspect the register SRAM (what Volt Boot would dump).
	got := s.Cores[0].CPU.V(0)
	if got[0] != want {
		t.Fatalf("register file V0 = %#x, want %#x (process %d on-core)", got[0], want, current)
	}
}

func TestSchedulerNoProcesses(t *testing.T) {
	s := poweredSoC(t)
	sc := NewScheduler(s, 0, 100)
	if _, err := sc.Run(100); err == nil {
		t.Fatal("empty scheduler should error")
	}
}

func asmAt(base uint64, src string) ([]uint32, error) {
	return isa.Assemble(base, src)
}
