package core

import (
	"bytes"
	"testing"

	"repro/internal/board"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/soc"
)

// plainBus exposes only the SoC's isa.Bus methods. A CPU built over it
// does not see the predecoded i-stream (isa.DecodedBus), so it fetches
// and decodes every instruction through the full bus path.
type plainBus struct{ isa.Bus }

// dumpRunState is everything the cache-dump payload's execution can
// leave behind that the differential compares.
type dumpRunState struct {
	regs    [][31]uint64
	vregs   [][32][2]uint64
	instret []uint64
	pc      []uint64
	history [][]byte // per core: TLB then BTB contents
	l2Stats cache.Stats
	l2Tags  []uint64
	dump    []byte // the dump region, read coherently through the L2
	dram    []byte // the physical DRAM cells
}

// bootDumpPayload runs a victim, power-cycles the board the Volt Boot way
// and boots the cache-dump payload, leaving every core at its entry.
func bootDumpPayload(t *testing.T, spec soc.DeviceSpec) *board.Board {
	t.Helper()
	b := newBoard(t, spec, soc.Options{})
	victim, err := VictimPatternFillImage(0x100000, 4096, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 10_000_000); err != nil {
		t.Fatal(err)
	}
	psu, err := powerCycle(b, DefaultAttackConfig(), &stepTracer{env: b.Env})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(psu.Detach)
	img, _, err := CacheDumpPayloadWithTags(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SoC.Boot(img); err != nil {
		t.Fatal(err)
	}
	return b
}

func captureDumpRun(t *testing.T, b *board.Board) dumpRunState {
	t.Helper()
	s := b.SoC
	var st dumpRunState
	for _, c := range s.Cores {
		var x [31]uint64
		var v [32][2]uint64
		for i := range x {
			x[i] = c.RegFile.ReadX(i)
		}
		for i := range v {
			v[i] = c.RegFile.ReadV(i)
		}
		st.regs = append(st.regs, x)
		st.vregs = append(st.vregs, v)
		st.instret = append(st.instret, c.CPU.Instret)
		st.pc = append(st.pc, c.CPU.PC)
		st.history = append(st.history, append(c.TLB.ReadBytes(0, c.TLB.Bytes()), c.BTB.ReadBytes(0, c.BTB.Bytes())...))
	}
	st.l2Stats = s.L2.Stats()
	l2 := s.L2.Config()
	for w := 0; w < l2.Ways; w++ {
		for set := 0; set < l2.Sets(); set++ {
			e, err := s.L2.RAMIndexTag(w, set)
			if err != nil {
				t.Fatal(err)
			}
			st.l2Tags = append(st.l2Tags, e)
		}
	}
	// Taken after the tag RAM and stats: the coherent read goes through
	// the L2 and moves both, identically on either side.
	st.dump = s.ReadDRAM(int(DumpBase), len(s.Cores)*int(CoreDumpStride))
	st.dram = s.DRAM.Read(0, s.DRAM.Size())
	return st
}

// TestDumpPayloadFetchPathsAgree is the differential oracle for the
// extraction payload's fetch path. With the L1s off and the L2 on, the
// payload runs from L2-predecoded instructions and superblocks while its
// stores stream into the dump region. A reference run of the same
// payload on an identical board rebuilds each core's CPU over a bus that
// hides the predecoded i-stream and steps it one instruction at a time.
// Registers, retired-instruction counts, TLB/BTB history, the L2's
// statistics and tag RAM, the dump and the DRAM cells must all agree.
func TestDumpPayloadFetchPathsAgree(t *testing.T) {
	const budget = 50_000_000
	spec := soc.BCM2711()

	fast := bootDumpPayload(t, spec)
	if fast.SoC.Cores[0].L1I.Enabled() || !fast.SoC.L2.Enabled() {
		t.Fatal("extraction payload fetches are not served by the L2")
	}
	if err := fast.SoC.RunAllCores(budget); err != nil {
		t.Fatal(err)
	}
	got := captureDumpRun(t, fast)

	ref := bootDumpPayload(t, spec)
	s := ref.SoC
	for _, c := range s.Cores {
		cpu := isa.NewCPU(c.ID, c.RegFile, plainBus{s}, s)
		cpu.RestoreState(c.CPU.CaptureState())
		c.CPU = cpu
		for !cpu.Halted {
			if cpu.Instret >= budget {
				t.Fatalf("reference core %d did not halt within %d instructions", c.ID, budget)
			}
			if err := cpu.Step(); err != nil {
				t.Fatalf("reference core %d: %v", c.ID, err)
			}
		}
	}
	want := captureDumpRun(t, ref)

	for c := range want.regs {
		if got.regs[c] != want.regs[c] || got.vregs[c] != want.vregs[c] {
			t.Errorf("core %d: register file differs from the reference", c)
		}
		if got.instret[c] != want.instret[c] || got.pc[c] != want.pc[c] {
			t.Errorf("core %d: Instret %d PC %#x, reference %d %#x", c, got.instret[c], got.pc[c], want.instret[c], want.pc[c])
		}
		if !bytes.Equal(got.history[c], want.history[c]) {
			t.Errorf("core %d: TLB/BTB history differs from the reference", c)
		}
	}
	if got.l2Stats != want.l2Stats {
		t.Errorf("L2 stats %+v, reference %+v", got.l2Stats, want.l2Stats)
	}
	for i := range want.l2Tags {
		if got.l2Tags[i] != want.l2Tags[i] {
			t.Errorf("L2 tag entry %d = %#x, reference %#x", i, got.l2Tags[i], want.l2Tags[i])
			break
		}
	}
	if !bytes.Equal(got.dump, want.dump) {
		t.Error("dump region differs from the reference")
	}
	if !bytes.Equal(got.dram, want.dram) {
		t.Error("DRAM cells differ from the reference")
	}
}
