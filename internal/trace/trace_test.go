package trace_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/aes"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/trace"
)

const (
	tStateAddr = uint64(0x40000)
	tKeyAddr   = uint64(0x41000)
	tSBoxAddr  = uint64(0x42000)
	tOutAddr   = uint64(0x43000)
)

var tKey = [16]byte{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

// victimSoC boots a BCM2711 into the AES victim with data staged and a
// plaintext written, ready to run.
func victimSoC(tb testing.TB, rounds int, pt [16]byte) (*soc.SoC, *trace.AESVictim) {
	return victimSoCCached(tb, rounds, pt, true)
}

func victimSoCCached(tb testing.TB, rounds int, pt [16]byte, caches bool) (*soc.SoC, *trace.AESVictim) {
	tb.Helper()
	env := sim.NewEnv()
	spec := soc.BCM2711()
	s, err := soc.New(env, spec, soc.Options{}, 0xC0FFEE)
	if err != nil {
		tb.Fatal(err)
	}
	power.NewBenchSupply("bench-core", spec.CoreVolts, 10).AttachTo(s.CoreDom)
	power.NewBenchSupply("bench-mem", spec.MemVolts, 10).AttachTo(s.MemDom)
	v, err := trace.BuildAESVictim(soc.PayloadBase, tStateAddr, tKeyAddr, tSBoxAddr, tOutAddr, rounds)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Boot(&soc.BootImage{Words: v.Words, EnableCaches: caches}); err != nil {
		tb.Fatal(err)
	}
	if err := v.StageData(s, tKey); err != nil {
		tb.Fatal(err)
	}
	s.WriteDRAM(int(tStateAddr), pt[:])
	return s, v
}

// TestVictimComputesSubBytes: the victim's output buffer ends the run
// holding sbox[pt[i] ^ rk_last[i]] — the last round's AddRoundKey +
// SubBytes of the (never-overwritten) plaintext. This is the ground
// truth the CPA hypothesis model is built on.
func TestVictimComputesSubBytes(t *testing.T) {
	var pt [16]byte
	for i := range pt {
		pt[i] = byte(0x11 * i)
	}
	// Uncached, so the victim's stores land in DRAM where ReadDRAM
	// (which bypasses the cache) can see them.
	s, v := victimSoCCached(t, 10, pt, false)
	if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	sched, err := aes.ExpandKey128(tKey[:])
	if err != nil {
		t.Fatal(err)
	}
	out := s.ReadDRAM(int(tOutAddr), 16)
	for i := 0; i < 16; i++ {
		want := aes.SBox(pt[i] ^ sched[16*(v.Rounds-1)+i])
		if out[i] != want {
			t.Errorf("out[%d] = %#02x, want sbox[pt^rk9] = %#02x", i, out[i], want)
		}
	}
}

// TestCaptureSampleCount: an armed capturer with a roomy arena records
// exactly one sample per retired instruction, and a short arena clips
// without disturbing the run.
func TestCaptureSampleCount(t *testing.T) {
	s, v := victimSoC(t, 2, [16]byte{})
	c, err := trace.New(s, 0, v.RunLength()+100)
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	c.Disarm()
	if got := len(c.Samples()); got != v.RunLength() {
		t.Fatalf("captured %d samples, victim retired %d", got, v.RunLength())
	}

	s2, v2 := victimSoC(t, 2, [16]byte{})
	c2, err := trace.New(s2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	c2.Arm()
	if err := s2.RunCore(0, uint64(v2.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	c2.Disarm()
	if got := len(c2.Samples()); got != 10 {
		t.Fatalf("clipped capture recorded %d samples, want arena size 10", got)
	}
	if !s2.Cores[0].CPU.Halted {
		t.Fatal("victim did not halt with a clipped arena")
	}
}

// TestCaptureDoesNotPerturb: running the victim with an armed capturer
// yields the same architectural outcome — output buffer and final
// register file — as running without one.
func TestCaptureDoesNotPerturb(t *testing.T) {
	var pt [16]byte
	for i := range pt {
		pt[i] = byte(0xA5 ^ i)
	}
	run := func(armed bool) ([]byte, [31]uint64) {
		s, v := victimSoC(t, 10, pt)
		if armed {
			c, err := trace.New(s, 0, v.RunLength())
			if err != nil {
				t.Fatal(err)
			}
			c.Arm()
			defer c.Disarm()
		}
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			t.Fatal(err)
		}
		var regs [31]uint64
		for i := range regs {
			regs[i] = s.Cores[0].CPU.X(i)
		}
		return s.ReadDRAM(int(tOutAddr), 16), regs
	}
	plainOut, plainRegs := run(false)
	armedOut, armedRegs := run(true)
	if string(plainOut) != string(armedOut) {
		t.Fatalf("armed capture changed the victim's output:\nplain %x\narmed %x", plainOut, armedOut)
	}
	if plainRegs != armedRegs {
		t.Fatalf("armed capture changed the final register file")
	}
}

// TestCaptureDeterministic: two identically-built rigs capture
// bit-identical traces.
func TestCaptureDeterministic(t *testing.T) {
	var pt [16]byte
	for i := range pt {
		pt[i] = byte(3 * i)
	}
	capture := func() []float32 {
		s, v := victimSoC(t, 3, pt)
		c, err := trace.New(s, 0, v.RunLength())
		if err != nil {
			t.Fatal(err)
		}
		c.Arm()
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			t.Fatal(err)
		}
		c.Disarm()
		out := make([]float32, len(c.Samples()))
		copy(out, c.Samples())
		return out
	}
	a, b := capture(), capture()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical rigs: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestArmDisarmDetach: Disarm detaches the capturer's sink; a foreign
// sink is left alone.
func TestArmDisarmDetach(t *testing.T) {
	s, _ := victimSoC(t, 1, [16]byte{})
	cpu := s.Cores[0].CPU
	c, err := trace.New(s, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	if h := cpu.Hooks; h == nil || h.Sink == nil {
		t.Fatal("Arm did not attach the sink")
	}
	own := cpu.Hooks.Sink
	if !c.Armed() {
		t.Fatal("Armed() false after Arm")
	}
	c.Disarm()
	if cpu.Hooks != nil {
		t.Fatal("Disarm left the capturer attached")
	}
	if c.Armed() {
		t.Fatal("Armed() true after Disarm")
	}

	c2, err := trace.New(s, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	c2.Arm() // takes over
	c.Disarm()
	if h := cpu.Hooks; h == nil || h.Sink == nil || h.Sink == own {
		t.Fatal("Disarm of a superseded capturer removed the active one")
	}
	c2.Disarm()
}

// TestCaptureSnapshotRestore: a capture is not snapshot state.
// Capturing with an armed capturer panics and names the core; a
// snapshot taken before Arm replays the identical trace for every trial
// that restores it, arms, runs and disarms.
func TestCaptureSnapshotRestore(t *testing.T) {
	s, v := victimSoC(t, 2, [16]byte{1, 2, 3})
	c, err := trace.New(s, 0, v.RunLength())
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	mustPanicNamingCore0(t, "CaptureSnapshot with an armed capturer", func() { s.CaptureSnapshot() })
	c.Disarm()

	snap := s.CaptureSnapshot()
	var traces [3][]float32
	for i := range traces {
		s.RestoreSnapshot(snap)
		c.Arm()
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			t.Fatal(err)
		}
		c.Disarm()
		traces[i] = append([]float32(nil), c.Samples()...)
	}
	if len(traces[0]) != v.RunLength() {
		t.Fatalf("captured %d samples, victim retired %d", len(traces[0]), v.RunLength())
	}
	for i, tr := range traces[1:] {
		if !slices.Equal(tr, traces[0]) {
			t.Fatalf("trial %d from the snapshot captured a different trace than the first", i+1)
		}
	}
}

// TestRestoreBeforeArmDetachesCapturer: restoring a snapshot while a
// capturer is armed panics before it rewinds anything, and the capturer
// stays armed and attached. Once Disarm detaches it, the restore
// succeeds and the restored run feeds it nothing.
func TestRestoreBeforeArmDetachesCapturer(t *testing.T) {
	s, v := victimSoC(t, 2, [16]byte{})
	c, err := trace.New(s, 0, v.RunLength())
	if err != nil {
		t.Fatal(err)
	}
	cpu := s.Cores[0].CPU
	snap := s.CaptureSnapshot()
	c.Arm()
	for i := 0; i < 40; i++ {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	pc, instret := cpu.PC, cpu.Instret
	mustPanicNamingCore0(t, "RestoreSnapshot with an armed capturer", func() { s.RestoreSnapshot(snap) })
	if !c.Armed() || cpu.Hooks == nil || cpu.Hooks.Sink == nil {
		t.Error("a refused restore disarmed or detached the capturer")
	}
	if cpu.PC != pc || cpu.Instret != instret {
		t.Errorf("a refused restore moved the core from PC %#x instret %d to %#x, %d", pc, instret, cpu.PC, cpu.Instret)
	}
	c.Disarm()
	n, act := len(c.Samples()), c.PendingActivity()
	if n != 40 {
		t.Fatalf("captured %d samples over 40 steps", n)
	}
	s.RestoreSnapshot(snap)
	if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	if gotAct, gotN := c.PendingActivity(), len(c.Samples()); gotAct != act || gotN != n {
		t.Fatalf("unarmed run fed the disarmed capturer: activity %d -> %d, samples %d -> %d", act, gotAct, n, gotN)
	}
}

// mustPanicNamingCore0 fails unless f panics with a message naming
// core 0.
func mustPanicNamingCore0(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "core 0") {
			t.Fatalf("%s panicked with %q, which does not name core 0", what, msg)
		}
	}()
	f()
}
