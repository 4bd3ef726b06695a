package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/soc"
)

// This file generates the post-reboot data-extraction payloads of §6.1
// step 3: bare-metal programs that (A) avoid touching the retained SRAM —
// they run with caches disabled out of uncached memory — and (B)
// exfiltrate the SRAM contents to DRAM through the RAMINDEX system
// register path, bracketing every RAMINDEX operation with the DSB/ISB
// barriers the Cortex-A72 requires.

// DumpBase is where extraction payloads deposit their output in DRAM.
const DumpBase uint64 = 0x200000

// CoreDumpStride separates per-core output regions.
const CoreDumpStride uint64 = 128 * 1024

// RegDumpBase is where the register-dump payload writes vector-register
// contents (32 regs × 16 bytes per core).
const RegDumpBase uint64 = 0x1F0000

// RegDumpStride separates per-core register dumps.
const RegDumpStride uint64 = 512

// DumpLayout records where each cache way of each core lands in DRAM so
// the harness can slice the exfiltrated image.
type DumpLayout struct {
	// L1DOffsets[way] / L1IOffsets[way] are offsets of way dumps within a
	// core's region; add DumpBase + core·CoreDumpStride.
	L1DOffsets []uint64
	L1IOffsets []uint64
	// L1DWayBytes / L1IWayBytes are the sizes of each way image.
	L1DWayBytes int
	L1IWayBytes int
	// L1DTagOffsets[way] / L1ITagOffsets[way] locate the tag-RAM dumps
	// (one 8-byte entry per set), present when the payload was built
	// with tags enabled.
	L1DTagOffsets []uint64
	L1ITagOffsets []uint64
	// L1DSets / L1ISets are the per-way set counts for slicing tags.
	L1DSets int
	L1ISets int
}

// WayRegion returns the absolute DRAM offset of a given way dump.
func (l DumpLayout) WayRegion(coreID int, icache bool, way int) (offset uint64, size int) {
	base := DumpBase + uint64(coreID)*CoreDumpStride
	if icache {
		return base + l.L1IOffsets[way], l.L1IWayBytes
	}
	return base + l.L1DOffsets[way], l.L1DWayBytes
}

// dumpLoop emits assembly that sweeps RAMINDEX over one cache way and
// stores every 64-bit word to the destination pointer in X3 (which it
// advances). Uses X10-X14 as scratch; label suffix keeps labels unique.
func dumpLoop(ramID uint64, way, words int, label string) string {
	return fmt.Sprintf(`
        LDIMM X10, #%#x         ; RAMINDEX request template: RAM id | way
        LDIMM X11, #%d          ; words in this way
        MOVZ X12, #0            ; word index
loop%s: ORR X13, X10, X12
        MSR RAMINDEX, X13       ; request cache-RAM read
        DSB                     ; §6.1: barriers must follow RAMINDEX
        ISB
        MRS X14, RAMDATA0
        STR X14, [X3]
        ADDI X3, X3, #8
        ADDI X12, X12, #1
        CMP X12, X11
        B.LT loop%s
    `, isa.RAMIndexRequest(ramID, way, 0), words, label, label)
}

// cacheDumpPayload builds the extraction payload for a device's L1
// caches: every core that runs it dumps its own L1D and L1I data RAMs,
// way by way, into its slice of the dump region. With tags it also dumps
// the L1 tag RAMs, letting the attacker reconstruct the memory address of
// every stolen line (§5.2.4: invalidation flips state bits but tags, like
// data, persist).
func cacheDumpPayload(spec soc.DeviceSpec, tags bool) (*soc.BootImage, DumpLayout, error) {
	layout := DumpLayout{
		L1DWayBytes: spec.L1D.SizeBytes / spec.L1D.Ways,
		L1IWayBytes: spec.L1I.SizeBytes / spec.L1I.Ways,
		L1DSets:     spec.L1D.Sets(),
		L1ISets:     spec.L1I.Sets(),
	}
	src := fmt.Sprintf(`
        ; Locate this core's dump region: DumpBase + COREID·stride.
        MRS X0, COREID
        LDIMM X1, #%#x          ; stride
        MUL X2, X0, X1
        LDIMM X3, #%#x          ; DumpBase
        ADD X3, X3, X2
    `, CoreDumpStride, DumpBase)

	var off uint64
	for w := 0; w < spec.L1D.Ways; w++ {
		layout.L1DOffsets = append(layout.L1DOffsets, off)
		src += dumpLoop(isa.RAMIDL1DData, w, layout.L1DWayBytes/8, fmt.Sprintf("d%d", w))
		off += uint64(layout.L1DWayBytes)
	}
	for w := 0; w < spec.L1I.Ways; w++ {
		layout.L1IOffsets = append(layout.L1IOffsets, off)
		src += dumpLoop(isa.RAMIDL1IData, w, layout.L1IWayBytes/8, fmt.Sprintf("i%d", w))
		off += uint64(layout.L1IWayBytes)
	}
	if tags {
		for w := 0; w < spec.L1D.Ways; w++ {
			layout.L1DTagOffsets = append(layout.L1DTagOffsets, off)
			src += dumpLoop(isa.RAMIDL1DTag, w, layout.L1DSets, fmt.Sprintf("dt%d", w))
			off += uint64(layout.L1DSets * 8)
		}
		for w := 0; w < spec.L1I.Ways; w++ {
			layout.L1ITagOffsets = append(layout.L1ITagOffsets, off)
			src += dumpLoop(isa.RAMIDL1ITag, w, layout.L1ISets, fmt.Sprintf("it%d", w))
			off += uint64(layout.L1ISets * 8)
		}
	}
	src += "        HLT #0\n"
	if off > CoreDumpStride {
		return nil, layout, fmt.Errorf("core: dump region overflow: need %d bytes per core", off)
	}
	words, err := isa.Assemble(soc.PayloadBase, src)
	if err != nil {
		return nil, layout, fmt.Errorf("core: assembling cache dump payload: %w", err)
	}
	return &soc.BootImage{Words: words}, layout, nil
}

// RegisterDumpPayload builds the §7.2 payload: it stores every vector
// register (untouched by boot firmware) to DRAM. Each core writes 32×16
// bytes at RegDumpBase + COREID·RegDumpStride.
func RegisterDumpPayload() (*soc.BootImage, error) {
	src := fmt.Sprintf(`
        MRS X0, COREID
        LDIMM X1, #%#x
        MUL X2, X0, X1
        LDIMM X3, #%#x
        ADD X3, X3, X2
    `, RegDumpStride, RegDumpBase)
	for v := 0; v < 32; v++ {
		src += fmt.Sprintf(`
        UMOV X4, V%d, #0
        STR X4, [X3, #%d]
        UMOV X4, V%d, #1
        STR X4, [X3, #%d]
        `, v, v*16, v, v*16+8)
	}
	src += "        HLT #0\n"
	words, err := isa.Assemble(soc.PayloadBase, src)
	if err != nil {
		return nil, fmt.Errorf("core: assembling register dump payload: %w", err)
	}
	return &soc.BootImage{Words: words}, nil
}

// TLBDumpBase is where the TLB-dump payload deposits entries.
const TLBDumpBase uint64 = 0x1E0000

// TLBDumpStride separates per-core TLB dumps (64 entries × 8 bytes).
const TLBDumpStride uint64 = 1024

// TLBEntries is the modelled per-core TLB size.
const TLBEntries = 64

// TLBDumpPayload builds the Ablation E extraction payload: it sweeps
// RAMINDEX over the TLB's entries and stores them to DRAM, exposing the
// victim's retained page-translation history.
func TLBDumpPayload() (*soc.BootImage, error) {
	src := fmt.Sprintf(`
        MRS X0, COREID
        LDIMM X1, #%#x
        MUL X2, X0, X1
        LDIMM X3, #%#x
        ADD X3, X3, X2
    `, TLBDumpStride, TLBDumpBase)
	src += dumpLoop(isa.RAMIDTLB, 0, TLBEntries, "tlb")
	src += "        HLT #0\n"
	words, err := isa.Assemble(soc.PayloadBase, src)
	if err != nil {
		return nil, fmt.Errorf("core: assembling TLB dump payload: %w", err)
	}
	return &soc.BootImage{Words: words}, nil
}

// VictimNOPFillImage assembles the §7.1.1 victim: a program that enables
// the caches and executes a straight line of NOPs sized to fill the
// entire L1 i-cache, then halts. Running it leaves the i-cache packed
// with known machine code — the ground truth the attack is scored
// against.
func VictimNOPFillImage(spec soc.DeviceSpec) (*soc.BootImage, []uint32, error) {
	nops := spec.L1I.SizeBytes / 4
	words := make([]uint32, 0, nops+1)
	for i := 0; i < nops; i++ {
		words = append(words, isa.NOPWord)
	}
	halt := isa.Instr{Op: isa.OpHLT}.Encode()
	words = append(words, halt)
	return &soc.BootImage{Words: words, EnableCaches: true}, words, nil
}

// VictimPatternFillImage assembles a victim that fills count 8-byte words
// at base with a byte pattern through the (enabled) d-cache, then halts.
func VictimPatternFillImage(base uint64, count int, pattern byte) (*soc.BootImage, error) {
	rep := uint64(pattern)
	rep |= rep<<8 | rep<<16 | rep<<24 | rep<<32 | rep<<40 | rep<<48 | rep<<56
	src := fmt.Sprintf(`
        LDIMM X0, #%#x
        LDIMM X1, #%d
        LDIMM X2, #%#x
fill:   STR X2, [X0]
        ADDI X0, X0, #8
        SUBI X1, X1, #1
        CBNZ X1, fill
        HLT #0
    `, base, count, rep)
	words, err := isa.Assemble(soc.PayloadBase, src)
	if err != nil {
		return nil, err
	}
	return &soc.BootImage{Words: words, EnableCaches: true}, nil
}

// VictimVectorFillImage assembles the §7.2 victim: it loads
// distinguishable patterns into every vector register (even registers
// 0xAA…, odd registers 0xFF…, lane-tagged via INS) and halts, leaving the
// "key schedule" resident only in registers.
func VictimVectorFillImage() (*soc.BootImage, error) {
	src := ""
	for v := 0; v < 32; v++ {
		pattern := 0xAA
		if v%2 == 1 {
			pattern = 0xFF
		}
		src += fmt.Sprintf("        VMOVI V%d, #%#x\n", v, pattern)
	}
	src += "        HLT #0\n"
	words, err := isa.Assemble(soc.PayloadBase, src)
	if err != nil {
		return nil, err
	}
	return &soc.BootImage{Words: words}, nil
}

// VictimVectorKeyImage assembles a TRESOR-style victim: it materializes
// the given 16-byte round keys into vector registers V0..Vn (one round
// key per register, built with MOVK sequences and INS so the key bytes
// never touch DRAM), then halts.
func VictimVectorKeyImage(roundKeys [][]byte) (*soc.BootImage, error) {
	if len(roundKeys) > 32 {
		return nil, fmt.Errorf("core: %d round keys exceed 32 vector registers", len(roundKeys))
	}
	src := ""
	for v, rk := range roundKeys {
		if len(rk) != 16 {
			return nil, fmt.Errorf("core: round key %d is %d bytes, want 16", v, len(rk))
		}
		var lo, hi uint64
		for i := 0; i < 8; i++ {
			lo |= uint64(rk[i]) << (8 * i)
			hi |= uint64(rk[8+i]) << (8 * i)
		}
		src += fmt.Sprintf(`
        LDIMM X0, #%#x
        INS V%d, X0, #0
        LDIMM X0, #%#x
        INS V%d, X0, #1
        `, lo, v, hi, v)
	}
	src += "        MOVZ X0, #0\n        HLT #0\n" // scrub the staging register
	words, err := isa.Assemble(soc.PayloadBase, src)
	if err != nil {
		return nil, err
	}
	return &soc.BootImage{Words: words}, nil
}
