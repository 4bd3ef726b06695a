package soc

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sram"
	"repro/internal/xrand"
)

// The dispatch oracle. Random well-formed programs run on identically
// built and booted SoCs, each dispatching core 0 a different way:
//
//  1. ref: cpu.Step, which fetches and decodes every instruction through
//     FetchInstr (the plain reference);
//  2. superblock: RunCoreQuantum;
//  3. hooked: RunCoreQuantum with an attached fault injector that never
//     faults and an armed trace sink;
//  4. traced: RunCoreQuantum with an armed trace sink alone.
//
// The reference carries an armed trace sink too. A second lane pairs a
// glitched path with a plain reference of its own, both with a fault
// injector that never faults but changes the machine between two
// instructions, as a glitcher's pulse edges do: it invalidates the L1I
// before every n-th instruction and drives a depth-0 pulse on the core
// domain, a rail event, before every m-th. The glitched path's block
// runs must re-validate after every instruction.
//
// Every path but the reference runs RunCoreQuantum over random quantum
// sizes, so in superblocks, and is compared with its reference at every
// quantum boundary: PC, flags, Instret, halt state, barrier count, every
// cache's statistics and every SRAM array's bytes, and for traced paths
// the power-trace samples as well: a sample may not depend on whether
// its fetch went through FetchInstr or a superblock. An array whose
// generation moved on neither side since the last comparison holds what
// it held then, so only moved arrays are re-read.
//
// Every side captures a snapshot a few hundred instructions in, runs to
// the halt, restores it and runs to the halt again, twice. A restore
// keeps the superblocks of every cache line it did not rewind; the
// references hold no such state, so any block a restore should have
// retired shows as a divergence. Each program ends with a
// comparison of the DRAM cells.

// Register roles in generated programs. Random instructions write only
// X0–X9. X10–X12 hold data bases, X13 a maintenance address, X17 the
// pool, X14–X16, X18 and X19 a self-modifying loop's pointer, patch and
// counter, X20 and X21 the other loops' counters, and X22–X25 an
// aliasing loop's pass counter, pointer, walk counter and stride.
const (
	oracleScratch = 10 // X0–X9
	oracleData    = 0x100000
	// Three data bases whose lines share L1D sets (16 KiB way stride)
	// and, for the first and third, L2 sets (64 KiB way stride), so
	// loads and stores also exercise evictions and writebacks.
	oracleDataB = oracleData + 0x4000
	oracleDataC = oracleData + 0x10000
)

// noFault is a fault injector that never faults. It counts the
// instructions it was consulted on, which must be every one. With every
// set, it invalidates its core's L1I before each every-th of them, and
// with pulse set, it drives a depth-0 pulse on the core domain before
// each pulse-th: changes to the i-side between two instructions, like a
// glitcher's pulse edges. A block run that did not re-validate after
// each instruction would run the rest of the block from the lines the
// invalidate dropped.
type noFault struct {
	seen         uint64
	s            *SoC
	every, pulse uint64
}

func (f *noFault) OnInstr(c *isa.CPU, _ isa.Instr) isa.FaultDecision {
	f.seen++
	if f.every != 0 && f.seen%f.every == 0 {
		f.s.ICIALLU(c.ID)
	}
	if f.pulse != 0 && f.seen%f.pulse == 0 {
		d := f.s.CoreDom
		d.PulseDown(d.NominalVolts())
		d.PulseEnd(0)
	}
	return isa.FaultDecision{}
}

// progGen writes one random program. alias adds aliasing loops.
type progGen struct {
	r      *xrand.Rand
	b      strings.Builder
	labels int
	alias  bool
}

func (g *progGen) line(format string, args ...any) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
}

func (g *progGen) label() string {
	g.labels++
	return fmt.Sprintf("l%d", g.labels)
}

func (g *progGen) dst() int { return g.r.Intn(oracleScratch) }
func (g *progGen) src() int { return g.r.Intn(18) } // scratch, pointers and patch registers
func (g *progGen) base() string {
	return []string{"X10", "X11", "X12"}[g.r.Intn(3)]
}

// simple emits one instruction that neither branches nor touches the
// pointer, patch or loop-counter registers.
func (g *progGen) simple() {
	switch g.r.Intn(14) {
	case 0, 1:
		op := []string{"ADD", "SUB", "AND", "ORR", "EOR", "LSL", "LSR", "MUL", "ADDS", "SUBS"}[g.r.Intn(10)]
		g.line("%s X%d, X%d, X%d", op, g.dst(), g.src(), g.src())
	case 2:
		op := []string{"ADDI", "SUBI", "SUBSI"}[g.r.Intn(3)]
		g.line("%s X%d, X%d, #%d", op, g.dst(), g.src(), g.r.Intn(0x1000))
	case 3:
		op := []string{"MOVZ", "MOVK", "MOVN"}[g.r.Intn(3)]
		g.line("%s X%d, #%d, LSL #%d", op, g.dst(), g.r.Intn(0x10000), 16*g.r.Intn(4))
	case 4:
		g.line("CMP X%d, X%d", g.src(), g.src())
	case 5, 6:
		op := []string{"LDR", "LDRW", "LDRB"}[g.r.Intn(3)]
		g.line("%s X%d, [%s, #%d]", op, g.dst(), g.base(), g.offset(op))
	case 7, 8:
		op := []string{"STR", "STRW", "STRB"}[g.r.Intn(3)]
		g.line("%s X%d, [%s, #%d]", op, g.src(), g.base(), g.offset(op))
	case 9:
		if g.r.Bool() {
			g.line("VLDR V%d, [%s, #%d]", g.r.Intn(8), g.base(), 16*g.r.Intn(64))
		} else {
			g.line("VSTR V%d, [%s, #%d]", g.r.Intn(8), g.base(), 16*g.r.Intn(64))
		}
	case 10:
		switch g.r.Intn(4) {
		case 0:
			g.line("VMOVI V%d, #%d", g.r.Intn(8), g.r.Intn(256))
		case 1:
			g.line("VEOR V%d, V%d, V%d", g.r.Intn(8), g.r.Intn(8), g.r.Intn(8))
		case 2:
			g.line("UMOV X%d, V%d, #%d", g.dst(), g.r.Intn(8), g.r.Intn(2))
		default:
			g.line("INS V%d, X%d, #%d", g.r.Intn(8), g.src(), g.r.Intn(2))
		}
	case 11:
		g.line("%s", []string{"DSB", "ISB", "NOP"}[g.r.Intn(3)])
	case 12:
		g.line("MRS X%d, %s", g.dst(), []string{"CNT", "COREID", "CURRENTEL"}[g.r.Intn(3)])
	default:
		// A store into the pool: data words sharing cache lines with
		// the program's own tail (word-aligned, like the code).
		g.line("STRW X%d, [X17, #%d]", g.src(), 4*g.r.Intn(16))
	}
}

// offset returns a size-aligned offset inside the first KiB of a base.
func (g *progGen) offset(op string) int {
	size := map[string]int{"LDR": 8, "STR": 8, "LDRW": 4, "STRW": 4, "LDRB": 1, "STRB": 1}[op]
	return size * g.r.Intn(1024/size)
}

// block emits one random construct; depth bounds loop nesting.
func (g *progGen) block(depth int) {
	if g.alias && depth == 0 && g.r.Intn(5) == 0 {
		g.aliasLoop()
		return
	}
	switch k := g.r.Intn(10); {
	case k < 4:
		for n := 1 + g.r.Intn(4); n > 0; n-- {
			g.simple()
		}
	case k == 4:
		// Forward conditional branch over a few instructions.
		skip := g.label()
		g.line("CMP X%d, X%d", g.src(), g.src())
		g.line("B.%s %s", []string{"EQ", "NE", "LT", "GE", "LO", "HS", "GT", "LE"}[g.r.Intn(8)], skip)
		for n := 1 + g.r.Intn(4); n > 0; n-- {
			g.simple()
		}
		fmt.Fprintf(&g.b, "%s:\n", skip)
	case k == 5:
		// Cache maintenance on a data line.
		g.line("ADDI X13, %s, #%d", g.base(), 64*g.r.Intn(16))
		g.line("%s", []string{"DC ZVA, X13", "DC CIVAC, X13", "IC IALLU"}[g.r.Intn(3)])
	case k == 6:
		g.smcLoop()
	default:
		// Bounded loop, counter X20 (outer) or X21 (inner).
		if depth >= 2 {
			g.simple()
			return
		}
		ctr := 20 + depth
		top := g.label()
		g.line("MOVZ X%d, #%d", ctr, 2+g.r.Intn(6))
		fmt.Fprintf(&g.b, "%s:\n", top)
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			g.block(depth + 1)
		}
		g.line("SUBI X%d, X%d, #1", ctr, ctr)
		g.line("CBNZ X%d, %s", ctr, top)
	}
}

// smcLoop emits a loop that, from a random pass on, rewrites one of its
// own later instructions, alternating between two encodings of ADDI.
// Until then the store goes to a data word, so the loop body settles
// into a predecoded superblock first; the switching pass then stores
// into an instruction that block holds, as TestSelfModifyingCodeThroughL2
// does with a fixed program.
func (g *progGen) smcLoop() {
	slot, top, store := g.label(), g.label(), g.label()
	d := g.dst()
	a := isa.Instr{Op: isa.OpADDI, Rd: d, Rn: d, Imm: 1}.Encode()
	b := isa.Instr{Op: isa.OpADDI, Rd: d, Rn: d, Imm: 3}.Encode()
	passes := 3 + g.r.Intn(4)
	g.line("LDIMM X14, #%#x", oracleData+0x800)
	g.line("LDIMM X18, %s", slot)
	g.line("LDIMM X15, #%#x", a)
	g.line("LDIMM X16, #%#x", a^b)
	g.line("MOVZ X19, #%d", passes)
	fmt.Fprintf(&g.b, "%s:\n", top)
	g.line("EOR X15, X15, X16")
	g.line("CMPI X19, #%d", 1+g.r.Intn(passes-1))
	g.line("B.NE %s", store)
	g.line("MOV X14, X18")
	fmt.Fprintf(&g.b, "%s:\n", store)
	g.line("STRW X15, [X14]")
	for n := g.r.Intn(3); n > 0; n-- {
		g.simple()
	}
	fmt.Fprintf(&g.b, "%s:\n", slot)
	g.line("ADDI X%d, X%d, #1", d, d)
	for n := g.r.Intn(3); n > 0; n-- {
		g.simple()
	}
	g.line("SUBI X19, X19, #1")
	g.line("CBNZ X19, %s", top)
}

// aliasLoop emits a loop whose passes each walk 18 lines that share an
// L2 set with the loop's first line (the L2's way stride is 64 KiB),
// loading from some and storing to others. The walk runs from the next
// line on, so the 16-way set evicts the loop's first line, read into a
// superblock on this pass, and the next pass's fetch of it misses: an
// L2 fill that evicts a line a block was read from must retire the
// block, and fills into other slots must not disturb it. The
// walk's addresses share the loop label's word alignment, so it loads
// and stores words: a doubleword at a label 4 bytes before a line end
// would cross the line, which the caches reject.
func (g *progGen) aliasLoop() {
	top, walk := g.label(), g.label()
	g.line("MOVZ X22, #%d", 2+g.r.Intn(3))
	g.line("MOVZ X25, #1, LSL #16")
	fmt.Fprintf(&g.b, "%s:\n", top)
	g.line("LDIMM X23, %s", top)
	g.line("MOVZ X24, #18")
	for i := 0; i < 16; i++ { // 64 bytes: the walk starts on a later line
		g.line("NOP")
	}
	fmt.Fprintf(&g.b, "%s:\n", walk)
	g.line("ADD X23, X23, X25")
	if g.r.Bool() {
		g.line("LDRW X%d, [X23, #0]", g.dst())
	} else {
		g.line("STRW X%d, [X23, #0]", g.src())
	}
	g.line("SUBI X24, X24, #1")
	g.line("CBNZ X24, %s", walk)
	g.line("SUBI X22, X22, #1")
	g.line("CBNZ X22, %s", top)
}

// randomProgram returns a terminating program of roughly n blocks, with
// aliasing loops among them if alias is set.
func randomProgram(r *xrand.Rand, n int, alias bool) string {
	g := &progGen{r: r, alias: alias}
	g.line("LDIMM X10, #%#x", oracleData)
	g.line("LDIMM X11, #%#x", oracleDataB)
	g.line("LDIMM X12, #%#x", oracleDataC)
	g.line("LDIMM X17, pool")
	for i := 0; i < n; i++ {
		g.block(0)
	}
	g.line("HLT #0")
	g.b.WriteString("pool:\n")
	for i := 0; i < 16; i++ {
		g.line(".WORD 0")
	}
	return g.b.String()
}

// oracleSide is one SoC running a program down one dispatch path.
type oracleSide struct {
	s    *SoC
	cpu  *isa.CPU
	arrs []*sram.Array
	bufs [][]byte
	// sink is the armed trace sink on core 0, nil on untraced sides;
	// inj is core 0's fault injector, nil on sides without one.
	sink *isa.TraceSink
	inj  *noFault
	// retired counts the instructions the side ran, across restores.
	retired uint64
	snap    *Snapshot
}

// armTrace attaches an armed trace sink with an arena of n samples to
// the side's core 0.
func (o *oracleSide) armTrace(n int) {
	o.sink = &isa.TraceSink{Static: 0.62, Buf: make([]float32, n)}
	o.cpu.AttachTrace(o.sink)
}

// attachFault attaches a never-faulting injector to the side's core 0
// that invalidates the L1I before every every-th instruction and pulses
// the core domain before every pulse-th; a zero period never does.
func (o *oracleSide) attachFault(every, pulse uint64) {
	o.inj = &noFault{s: o.s, every: every, pulse: pulse}
	o.cpu.AttachFault(o.inj)
}

// fork captures a snapshot, or restores the one captured, with the
// side's observers detached for the call as snapshots require.
func (o *oracleSide) fork() {
	if o.sink != nil {
		o.cpu.DetachTrace(o.sink)
	}
	if o.inj != nil {
		o.cpu.DetachFault(o.inj)
	}
	if o.snap == nil {
		o.snap = o.s.CaptureSnapshot()
	} else {
		o.s.RestoreSnapshot(o.snap)
	}
	if o.inj != nil {
		o.cpu.AttachFault(o.inj)
	}
	if o.sink != nil {
		o.cpu.AttachTrace(o.sink)
	}
}

// oracleMode is one cache configuration the oracle runs programs under:
// l1 enables the L1s at boot, l2 keeps the L2 on after it, alias adds
// aliasing loops to the programs, and ecc runs them on a BCM2837, whose
// L1I stores its lines with inline ECC, instead of a BCM2711.
type oracleMode struct {
	name   string
	l1, l2 bool
	alias  bool
	ecc    bool
}

func newOracleSide(t *testing.T, words []uint32, m oracleMode) *oracleSide {
	t.Helper()
	spec := BCM2711()
	if m.ecc {
		spec = BCM2837()
	}
	s, _ := poweredSoC(t, spec, Options{})
	if err := s.Boot(&BootImage{Words: words, EnableCaches: m.l1}); err != nil {
		t.Fatal(err)
	}
	if !m.l2 {
		s.L2.SetEnabled(false)
	}
	if s.Cores[0].L1I.Enabled() != m.l1 || s.L2.Enabled() != m.l2 {
		t.Fatalf("L1I enabled = %v, L2 enabled = %v; want %v, %v", s.Cores[0].L1I.Enabled(), s.L2.Enabled(), m.l1, m.l2)
	}
	o := &oracleSide{s: s, cpu: s.Cores[0].CPU, arrs: s.arrays}
	for _, a := range o.arrs {
		o.bufs = append(o.bufs, make([]byte, a.Bytes()))
	}
	return o
}

// oraclePair tracks one path against the reference.
type oraclePair struct {
	name     string
	ref, got *oracleSide
	refGen   []uint64
	gotGen   []uint64
}

func newOraclePair(name string, ref, got *oracleSide) *oraclePair {
	p := &oraclePair{name: name, ref: ref, got: got}
	for i := range ref.arrs {
		p.refGen = append(p.refGen, ref.arrs[i].Gen())
		p.gotGen = append(p.gotGen, got.arrs[i].Gen())
	}
	return p
}

func (p *oraclePair) compare(t *testing.T, prog int) {
	t.Helper()
	r, g := p.ref.cpu, p.got.cpu
	if r.PC != g.PC || r.Flags != g.Flags || r.Instret != g.Instret || r.Halted != g.Halted || r.HaltCode != g.HaltCode {
		t.Fatalf("program %d, %s path: PC %#x flags %+v instret %d halted %v; reference %#x %+v %d %v",
			prog, p.name, g.PC, g.Flags, g.Instret, g.Halted, r.PC, r.Flags, r.Instret, r.Halted)
	}
	if p.ref.s.barriers != p.got.s.barriers {
		t.Fatalf("program %d, %s path at instret %d: %d barriers, reference %d",
			prog, p.name, r.Instret, p.got.s.barriers, p.ref.s.barriers)
	}
	refCaches, gotCaches := p.ref.s.caches, p.got.s.caches
	for i := range refCaches {
		if refCaches[i].Stats() != gotCaches[i].Stats() {
			t.Fatalf("program %d, %s path at instret %d: %s stats %+v, reference %+v",
				prog, p.name, r.Instret, gotCaches[i].Config().Name, gotCaches[i].Stats(), refCaches[i].Stats())
		}
	}
	if rs, gs := p.ref.sink, p.got.sink; rs != nil && gs != nil {
		// Earlier samples were compared when they were recorded.
		if rs.N != gs.N || rs.LastAddr != gs.LastAddr || lastSamplesDiffer(rs, gs) {
			t.Fatalf("program %d, %s path at instret %d: %d samples, last bus address %#x; reference %d, %#x",
				prog, p.name, r.Instret, gs.N, gs.LastAddr, rs.N, rs.LastAddr)
		}
	}
	for i, ra := range p.ref.arrs {
		ga := p.got.arrs[i]
		if ra.Gen() == p.refGen[i] && ga.Gen() == p.gotGen[i] {
			continue
		}
		p.refGen[i], p.gotGen[i] = ra.Gen(), ga.Gen()
		ra.SnapshotInto(p.ref.bufs[i])
		ga.SnapshotInto(p.got.bufs[i])
		if !bytes.Equal(p.ref.bufs[i], p.got.bufs[i]) {
			t.Fatalf("program %d, %s path at instret %d: array %s differs from the reference",
				prog, p.name, r.Instret, ra.Name())
		}
	}
}

// lastSamplesDiffer reports whether two sinks with equal counts
// disagree on any of their last 48 samples, the longest quantum.
func lastSamplesDiffer(a, b *isa.TraceSink) bool {
	for i := max(a.N-48, 0); i < a.N; i++ {
		if math.Float32bits(a.Buf[i]) != math.Float32bits(b.Buf[i]) {
			return true
		}
	}
	return false
}

// oracleLane is a plain reference and the paths compared with it at
// every quantum boundary.
type oracleLane struct {
	ref   *oracleSide
	paths []*oraclePair
}

// sides returns the lane's reference and paths.
func (l *oracleLane) sides() []*oracleSide {
	out := []*oracleSide{l.ref}
	for _, p := range l.paths {
		out = append(out, p.got)
	}
	return out
}

func (l *oracleLane) compare(t *testing.T, prog int) {
	t.Helper()
	for _, p := range l.paths {
		p.compare(t, prog)
	}
}

// run takes every side from a fresh boot to the halt three times: it
// captures a snapshot of every side at the first quantum boundary at or
// after instret capAt, and restores it after each halt but the last.
// Quantum sizes are drawn from r.
func (l *oracleLane) run(t *testing.T, prog int, r *xrand.Rand, capAt, maxInstr uint64) {
	t.Helper()
	ref := l.ref
	start := ref.cpu.Instret // restores rewind Instret to past it
	for pass := 0; pass < 3; pass++ {
		if pass > 0 {
			for _, side := range l.sides() {
				side.fork()
			}
			l.compare(t, prog)
		}
		for !ref.cpu.Halted {
			q := 1 + r.Intn(48)
			if ref.snap == nil && ref.cpu.Instret < capAt {
				q = min(q, int(capAt-ref.cpu.Instret))
			}
			k := 0
			for ; k < q && !ref.cpu.Halted; k++ {
				if ref.cpu.Instret-start >= maxInstr {
					t.Fatalf("program %d did not halt within %d instructions", prog, maxInstr)
				}
				if err := ref.cpu.Step(); err != nil {
					t.Fatalf("program %d, reference: %v", prog, err)
				}
				ref.retired++
			}
			for _, p := range l.paths {
				got := p.got
				n, err := got.s.RunCoreQuantum(0, uint64(k))
				got.retired += n
				if err != nil {
					t.Fatalf("program %d, %s path: %v", prog, p.name, err)
				}
				if n != uint64(k) {
					t.Fatalf("program %d, %s path retired %d of a %d-instruction quantum", prog, p.name, n, k)
				}
				p.compare(t, prog)
			}
			if ref.snap == nil && ref.cpu.Instret >= capAt {
				for _, side := range l.sides() {
					side.fork()
				}
			}
		}
	}
	for _, side := range l.sides() {
		if side.inj != nil && side.inj.seen != side.retired {
			t.Fatalf("program %d: injector consulted on %d instructions, core retired %d", prog, side.inj.seen, side.retired)
		}
		if side.sink != nil && uint64(side.sink.N) != side.retired {
			t.Fatalf("program %d: %d samples, core retired %d", prog, side.sink.N, side.retired)
		}
	}
	want := ref.s.DRAM.Read(0, ref.s.DRAM.Size())
	for _, side := range l.sides()[1:] {
		if !bytes.Equal(side.s.DRAM.Read(0, side.s.DRAM.Size()), want) {
			t.Fatalf("program %d: DRAM cells differ from the reference", prog)
		}
	}
}

// TestDispatchPathsAgree runs random programs down every dispatch path,
// across a snapshot restore, with the L1s on (fetches served by the
// L1I), with only the L2 on (the extraction payloads' configuration,
// whose programs add aliasing loops that make L2 fills evict fetched
// lines), with both off (every fetch read from DRAM) and with the L1s on
// over an inline-ECC L1I (blocks read words that the RAM holds encoded),
// and requires every path to match its plain reference at every
// comparison point.
func TestDispatchPathsAgree(t *testing.T) {
	const (
		blocks   = 24
		maxInstr = 200_000
		arena    = 3 * maxInstr // three runs to the halt
	)
	programs := 6 // about 135k instructions per lane over the four modes
	if testing.Short() {
		programs = 1 // keeps the -race -short pass fast; the full run is tier-1
	}
	r := xrand.New(0x0AC1E)
	for _, mode := range []oracleMode{
		{name: "L1I", l1: true, l2: true},
		{name: "L2-only", l2: true, alias: true},
		{name: "uncached"},
		{name: "L1I-ECC", l1: true, l2: true, ecc: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for prog := 0; prog < programs; prog++ {
				words := mustAsm(t, PayloadBase, randomProgram(r, blocks, mode.alias))
				ref := newOracleSide(t, words, mode)
				ref.armTrace(arena)
				sb := newOracleSide(t, words, mode)
				hooked := newOracleSide(t, words, mode)
				hooked.attachFault(0, 0)
				hooked.armTrace(arena)
				traced := newOracleSide(t, words, mode)
				traced.armTrace(arena)
				main := &oracleLane{ref: ref, paths: []*oraclePair{
					newOraclePair("superblock", ref, sb),
					newOraclePair("hooked", ref, hooked),
					newOraclePair("traced", ref, traced),
				}}
				main.run(t, prog, r, ref.cpu.Instret+50+uint64(r.Intn(500)), maxInstr)

				every := 5 + uint64(r.Intn(60))
				pulse := 5 + uint64(r.Intn(60))
				gref := newOracleSide(t, words, mode)
				gref.attachFault(every, pulse)
				gref.armTrace(arena)
				glitched := newOracleSide(t, words, mode)
				glitched.attachFault(every, pulse)
				glitched.armTrace(arena)
				lane := &oracleLane{ref: gref, paths: []*oraclePair{newOraclePair("glitched", gref, glitched)}}
				lane.run(t, prog, r, gref.cpu.Instret+50+uint64(r.Intn(500)), maxInstr)
			}
		})
	}
}
