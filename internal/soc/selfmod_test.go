package soc

import (
	"fmt"
	"testing"
)

// TestSelfModifyingCodeThroughL2 pins the L2 half of the predecode
// invalidation story. The BCM2711 boots without EnableCaches, so the L1I
// is off and every fetch is served, and predecoded, from the L2. A loop
// stores ADDI X5, X5, #3 over its own ADDI X5, X5, #1. For three passes
// the store goes to a data line nobody fetched from; from the fourth on
// it goes to the instruction right after it, which by then sits
// predecoded inside the running superblock. The patched instruction must
// execute from that very pass: 3 passes of +1 and 2 of +3 give X5 = 9,
// while a stale predecoded copy would give 5.
func TestSelfModifyingCodeThroughL2(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	patch := mustAsm(t, 0, "ADDI X5, X5, #3")[0]
	orig := mustAsm(t, 0, "ADDI X5, X5, #1")[0]
	assemble := func(target uint64) []uint32 {
		return mustAsm(t, PayloadBase, fmt.Sprintf(`
        MOVZ X5, #0
        MOVZ X6, #0             ; pass
        LDIMM X7, #%#x          ; ADDI X5, X5, #3
        LDIMM X8, #0x100000     ; store pointer: a data line at first
        LDIMM X9, #%#x          ; the instruction to patch
        MOVZ X10, #4            ; pass that redirects the pointer
        MOVZ X11, #5            ; passes
loop:   ADDI X6, X6, #1
        CMP X6, X10
        B.NE go
        MOV X8, X9
go:     STRW X7, [X8]
        ADDI X5, X5, #1         ; the patch target
        CMP X6, X11
        B.LT loop
        HLT #0
    `, patch, target))
	}
	// The target's address depends only on the instruction count, so a
	// first assembly locates it.
	words := assemble(0)
	target := -1
	for i, w := range words {
		if w == orig {
			target = i
		}
	}
	if target < 0 {
		t.Fatal("patch target not found in the assembled loop")
	}
	words = assemble(PayloadBase + uint64(target)*4)
	if err := s.Boot(&BootImage{Words: words}); err != nil {
		t.Fatal(err)
	}
	if s.Cores[0].L1I.Enabled() || !s.L2.Enabled() {
		t.Fatal("fetches are not served by the L2")
	}
	if err := s.RunCore(0, 10_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Cores[0].CPU.X(5); got != 9 {
		t.Fatalf("X5 = %d, want 9: a store into a predecoded L2 line left the stale instruction running", got)
	}
}
