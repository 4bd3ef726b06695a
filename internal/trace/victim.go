// The AES victim the side-channel experiments trace: a bare-metal
// VBA64 payload that runs the leaky half of an AES-128 round —
// AddRoundKey then the table-lookup SubBytes — over a 16-byte state,
// once per round key of the real expanded schedule. The round-0 S-box
// writeback is the classic CPA target: its Hamming weight is
// HW(SBox(plaintext[i] ^ key[i])), a function of one key byte and one
// known plaintext byte, so correlating hypothesis weights against
// captured traces recovers the master key byte by byte. Each round is
// followed by a deliberate quiet gap (NOPs: no writeback, no bus), so
// the ten rounds show up as ten activity bursts — the SPA structure.
//
// Control flow is data-independent (a counted round loop, no
// data-dependent branches), so every trial retires the same instruction
// sequence and traces align sample-for-sample with no realignment.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/aes"
	"repro/internal/isa"
	"repro/internal/soc"
)

// Victim layout constants: instruction counts that locate samples
// within a captured trace. These are properties of the assembly below;
// the builder cross-checks them against the assembled word count.
const (
	// victimPreamble is the pointer/counter setup before round 0 (five
	// LDIMMs — state, key cursor, S-box base, output buffer, round
	// counter — of 4 instructions each).
	victimPreamble = 5 * 4
	// victimPerByte is the instruction count of one byte's
	// AddRoundKey+SubBytes group.
	victimPerByte = 7
	// victimLeakOff is the index of the S-box load within a byte group
	// (LDRB X7, [X6] — the leaky writeback).
	victimLeakOff = 5
	// victimQuietNOPs is the inter-round gap length. It is deliberately
	// much wider than any intra-round activity dip (a byte group never
	// idles for more than a couple of samples), so SPA can tell round
	// boundaries from micro-structure by gap width alone.
	victimQuietNOPs = 32
	// victimRoundTail is the loop bookkeeping after the 16 byte groups:
	// key-cursor bump, counter decrement, the quiet gap, and the
	// back-branch.
	victimRoundTail = 2 + victimQuietNOPs + 1
	// victimRoundLen is the full per-round instruction count.
	victimRoundLen = 16*victimPerByte + victimRoundTail
)

// AESVictim is an assembled side-channel victim plus its data layout.
type AESVictim struct {
	// Words is the payload image; Entry is its load/entry address.
	Words []uint32
	Entry uint64
	// Rounds is the number of AddRoundKey+SubBytes rounds (≤ 11, the
	// AES-128 schedule depth).
	Rounds int
	// StateAddr holds the 16-byte state; trials write the plaintext
	// here before running. KeyAddr holds the expanded round keys,
	// SBoxAddr the 256-byte S-box table (see StageData), and OutAddr
	// the 16-byte output buffer each round overwrites. The victim only
	// ever *reads* StateAddr, so a run leaves the staged plaintext
	// intact.
	StateAddr, KeyAddr, SBoxAddr, OutAddr uint64
}

// BuildAESVictim assembles the victim at base with the given data
// layout. The three data addresses must each fit the assembler's
// unsigned byte-offset addressing (the payload addresses them with
// offsets 0..15 / 0..255 off a register base).
func BuildAESVictim(base, stateAddr, keyAddr, sboxAddr, outAddr uint64, rounds int) (*AESVictim, error) {
	if rounds < 1 || rounds > aes.ScheduleSize128/16 {
		return nil, fmt.Errorf("trace: rounds must be 1..%d, got %d", aes.ScheduleSize128/16, rounds)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `
		; AES side-channel victim: per round, state[i] = sbox[state[i] ^ rk[i]]
		LDIMM X0, #%#x          ; state (plaintext staged per trial)
		LDIMM X1, #%#x          ; round-key cursor
		LDIMM X2, #%#x          ; S-box table
		LDIMM X8, #%#x          ; output buffer
		LDIMM X9, #%d           ; round counter
round_loop:
`, stateAddr, keyAddr, sboxAddr, outAddr, rounds)
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, `
		LDRB X4, [X0, #%d]      ; state byte
		LDRB X5, [X1, #%d]      ; key byte
		EOR X4, X4, X5          ; AddRoundKey
		ADD X6, X2, X4
		MOVZ X7, #0             ; zero the bus flop: HD(0, sbox out) = HW
		LDRB X7, [X6]           ; SubBytes <- the CPA-target writeback
		STRB X7, [X8, #%d]
`, i, i, i)
	}
	b.WriteString(`
		ADDI X1, X1, #16        ; next round key
		SUBI X9, X9, #1
`)
	for i := 0; i < victimQuietNOPs; i++ {
		b.WriteString("\t\tNOP\n")
	}
	b.WriteString(`
		CBNZ X9, round_loop
		HLT #0
`)
	words, err := isa.Assemble(base, b.String())
	if err != nil {
		return nil, fmt.Errorf("trace: assembling AES victim: %w", err)
	}
	if len(words) != victimPreamble+victimRoundLen+1 {
		return nil, fmt.Errorf("trace: victim layout drifted: %d words, want %d",
			len(words), victimPreamble+victimRoundLen+1)
	}
	return &AESVictim{
		Words:     words,
		Entry:     base,
		Rounds:    rounds,
		StateAddr: stateAddr,
		KeyAddr:   keyAddr,
		SBoxAddr:  sboxAddr,
		OutAddr:   outAddr,
	}, nil
}

// RunLength is the total retired-instruction count of one victim run —
// the natural capture-arena size (one sample per instruction).
func (v *AESVictim) RunLength() int {
	return victimPreamble + v.Rounds*victimRoundLen + 1
}

// LeakSample returns the trace sample index of the S-box writeback for
// byte `i` of round `r` — where the CPA peak for that byte lands when
// capture is armed at the victim's entry.
func (v *AESVictim) LeakSample(r, i int) int {
	return victimPreamble + r*victimRoundLen + i*victimPerByte + victimLeakOff
}

// RoundStart returns the sample index of round r's first instruction,
// the boundary SPA peak-matching should find.
func (v *AESVictim) RoundStart(r int) int {
	return victimPreamble + r*victimRoundLen
}

// QuietGap is the inter-round quiet-gap width in samples — the scale
// separating true round boundaries from intra-round activity dips.
func (v *AESVictim) QuietGap() int { return victimQuietNOPs }

// StageData writes the victim's lookup data into DRAM: the S-box table
// and the full expanded schedule of key (round r of the loop consumes
// schedule bytes 16r..16r+15). Call once after boot, before capturing;
// the per-trial plaintext goes to StateAddr separately.
func (v *AESVictim) StageData(s *soc.SoC, key [16]byte) error {
	sched, err := aes.ExpandKey128(key[:])
	if err != nil {
		return err
	}
	sbox := make([]byte, 256)
	for i := range sbox {
		sbox[i] = aes.SBox(byte(i))
	}
	s.WriteDRAM(int(v.KeyAddr), sched)
	s.WriteDRAM(int(v.SBoxAddr), sbox)
	return nil
}
