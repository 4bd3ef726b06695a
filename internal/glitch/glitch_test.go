package glitch_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/glitch"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/sram"
	"repro/internal/trace"
)

const (
	testImageBase  = uint64(0x100000)
	testStatusAddr = uint64(0x4000)
	testProofAddr  = uint64(0x4800)
	testRunBudget  = uint64(50_000)
)

// bench is one secure-boot attack bench: a powered BCM2711 whose mask
// ROM verifies the image staged in DRAM, core 0 at the ROM entry, and a
// glitcher on the core domain. tampered selects which image is staged.
type bench struct {
	s   *soc.SoC
	rom *glitch.BootROM
	g   *glitch.Glitcher
	cpu *isa.CPU
}

func newBench(t testing.TB, seed uint64, tampered bool) *bench {
	t.Helper()
	env := sim.NewEnv()
	spec := soc.BCM2711()
	s, err := soc.New(env, spec, soc.Options{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	power.NewBenchSupply(env, "test-core", spec.CoreVolts, 10).AttachTo(s.CoreDom)
	power.NewBenchSupply(env, "test-mem", spec.MemVolts, 10).AttachTo(s.MemDom)

	image, err := glitch.BuildDemoImage(testImageBase, testProofAddr)
	if err != nil {
		t.Fatal(err)
	}
	rom, err := glitch.BuildBootROM(soc.ROMBase, image, testImageBase, testStatusAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ProgramROM(rom.Words); err != nil {
		t.Fatal(err)
	}
	staged := image
	if tampered {
		staged = glitch.TamperImage(image)
	}
	buf := make([]byte, len(staged)*4)
	for i, w := range staged {
		buf[i*4] = byte(w)
		buf[i*4+1] = byte(w >> 8)
		buf[i*4+2] = byte(w >> 16)
		buf[i*4+3] = byte(w >> 24)
	}
	s.WriteDRAM(int(testImageBase), buf)
	cpu := s.Cores[0].CPU
	cpu.Reset(rom.Entry)
	return &bench{s: s, rom: rom, g: glitch.New(s.CoreDom, cpu), cpu: cpu}
}

func (b *bench) readU64(addr uint64) uint64 {
	raw := b.s.ReadDRAM(int(addr), 8)
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(raw[i]) << (8 * i)
	}
	return v
}

func (b *bench) boot(t testing.TB) error {
	t.Helper()
	return b.s.RunCore(0, testRunBudget)
}

func isRunaway(err error) bool {
	var r *isa.RunawayError
	return errors.As(err, &r)
}

// TestBootROMLayout pins the address map BuildBootROM promises: the
// published trigger PCs must decode to the instructions the attack
// model aims at, and tampering must actually change the digest.
func TestBootROMLayout(t *testing.T) {
	image, err := glitch.BuildDemoImage(testImageBase, testProofAddr)
	if err != nil {
		t.Fatal(err)
	}
	rom, err := glitch.BuildBootROM(soc.ROMBase, image, testImageBase, testStatusAddr)
	if err != nil {
		t.Fatal(err)
	}
	if rom.Entry != soc.ROMBase {
		t.Errorf("Entry = %#x, want %#x", rom.Entry, uint64(soc.ROMBase))
	}
	word := func(pc uint64) isa.Instr {
		return isa.Decode(rom.Words[(pc-rom.Entry)/4])
	}
	if in := word(rom.CheckPC); in.Op != isa.OpSUBS || in.Rd != isa.XZR {
		t.Errorf("CheckPC decodes to %v Rd=%d, want CMP (SUBS into XZR)", in.Op, in.Rd)
	}
	if in := word(rom.BranchPC); in.Op != isa.OpBCond {
		t.Errorf("BranchPC decodes to %v, want B.NE", in.Op)
	}
	if in := word(rom.HashDonePC); in.Op != isa.OpMOVZ || in.Rd != 5 {
		t.Errorf("HashDonePC decodes to %v Rd=%d, want LDIMM X5 head (MOVZ)", in.Op, in.Rd)
	}
	if rom.Expected != glitch.HashImage(image) {
		t.Errorf("Expected digest does not match HashImage")
	}
	if glitch.HashImage(glitch.TamperImage(image)) == rom.Expected {
		t.Errorf("tampered image hashes to the expected digest")
	}
}

// TestGenuineImageBoots: with no glitcher and the genuine image, the
// ROM verifies, records BootMagic, and the image runs to its HLT #0
// having written its proof word.
func TestGenuineImageBoots(t *testing.T) {
	b := newBench(t, 0x5EED, false)
	if err := b.boot(t); err != nil {
		t.Fatal(err)
	}
	if !b.cpu.Halted || b.cpu.HaltCode != 0 {
		t.Fatalf("halted=%v code=%#x, want clean image halt", b.cpu.Halted, b.cpu.HaltCode)
	}
	if got := b.readU64(testStatusAddr); got != glitch.BootMagic {
		t.Errorf("status = %#x, want BootMagic", got)
	}
	if got := b.readU64(testProofAddr); got != glitch.ProofMagic {
		t.Errorf("proof = %#x, want ProofMagic", got)
	}
}

// TestTamperedImageLocksDown: one flipped bit in the image and the
// unglitched ROM takes the lock-down path and halts with LockHaltCode,
// never executing the image.
func TestTamperedImageLocksDown(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	if err := b.boot(t); err != nil {
		t.Fatal(err)
	}
	if !b.cpu.Halted || b.cpu.HaltCode != glitch.LockHaltCode {
		t.Fatalf("halted=%v code=%#x, want lock-down halt %#x",
			b.cpu.Halted, b.cpu.HaltCode, glitch.LockHaltCode)
	}
	if got := b.readU64(testStatusAddr); got != glitch.LockMagic {
		t.Errorf("status = %#x, want LockMagic", got)
	}
	if got := b.readU64(testProofAddr); got == glitch.ProofMagic {
		t.Errorf("proof written despite lock-down")
	}
}

// fullDepth is a single-instruction pulse deep enough that the faulted
// instruction always faults (the rail lands below the p == 1 collapse
// voltage).
var fullDepth = glitch.Pulse{Offset: 0, Width: 1, Depth: 0.5}

// bypassed reports whether the tampered image both passed verification
// and executed.
func (b *bench) bypassed() bool {
	return b.readU64(testStatusAddr) == glitch.BootMagic &&
		b.readU64(testProofAddr) == glitch.ProofMagic
}

// TestCheckSkipBypass reproduces the check-skip scenario: a fault that
// skips the final CMP inherits Z == 1 from the hash loop's exit
// compare, so B.NE falls through and the tampered image boots.
func TestCheckSkipBypass(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	snap := b.s.CaptureSnapshot()
	trig := glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.CheckPC}
	for seed := uint64(0); seed < 32; seed++ {
		b.s.RestoreSnapshot(snap)
		b.g.Arm(trig, fullDepth, seed)
		err := b.boot(t)
		fired := b.g.Finish()
		if err != nil {
			continue
		}
		if !fired {
			t.Fatal("fetch-addr trigger at CheckPC never fired")
		}
		faults := b.g.Faults()
		if len(faults) != 1 || faults[0].PC != b.rom.CheckPC {
			t.Fatalf("faults = %v, want exactly one at CheckPC", faults)
		}
		if faults[0].Kind == isa.FaultSkip && b.bypassed() {
			return // reproduced
		}
	}
	t.Fatal("no check-skip bypass in 32 attempts (expected ~2/3 per attempt)")
}

// TestVerifyBypassWrongBranch reproduces the verify-bypass scenario:
// the digest mismatch is fully computed and the wrong-branch fault
// inverts the B.NE itself.
func TestVerifyBypassWrongBranch(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	snap := b.s.CaptureSnapshot()
	trig := glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.BranchPC}
	for seed := uint64(0); seed < 32; seed++ {
		b.s.RestoreSnapshot(snap)
		b.g.Arm(trig, fullDepth, seed)
		err := b.boot(t)
		b.g.Finish()
		if err != nil {
			continue
		}
		faults := b.g.Faults()
		if len(faults) == 1 && faults[0].Kind == isa.FaultWrongBranch && b.bypassed() {
			return // reproduced
		}
	}
	t.Fatal("no wrong-branch bypass in 32 attempts (expected ~1/3 per attempt)")
}

// trialRecord is everything observable about one glitched boot.
type trialRecord struct {
	Err     bool
	Halted  bool
	Code    int64
	Status  uint64
	Proof   uint64
	Instret uint64
	Faults  []glitch.FaultRecord
}

func runTrial(t *testing.T, b *bench, trig glitch.Trigger, p glitch.Pulse, seed uint64) trialRecord {
	t.Helper()
	b.g.Arm(trig, p, seed)
	err := b.boot(t)
	b.g.Finish()
	return trialRecord{
		Err:     err != nil,
		Halted:  b.cpu.Halted,
		Code:    b.cpu.HaltCode,
		Status:  b.readU64(testStatusAddr),
		Proof:   b.readU64(testProofAddr),
		Instret: b.cpu.Instret,
		Faults:  append([]glitch.FaultRecord(nil), b.g.Faults()...),
	}
}

// TestGlitchDeterminism: a trial is a pure function of (board seed,
// trigger, pulse, glitch seed) — two independently built benches replay
// identical fault logs and final states, seed by seed.
func TestGlitchDeterminism(t *testing.T) {
	b1 := newBench(t, 0x5EED, true)
	b2 := newBench(t, 0x5EED, true)
	snap1 := b1.s.CaptureSnapshot()
	snap2 := b2.s.CaptureSnapshot()
	trig := glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b1.rom.HashDonePC}
	pulse := glitch.Pulse{Offset: 3, Width: 4, Depth: 0.30}
	for seed := uint64(0); seed < 16; seed++ {
		b1.s.RestoreSnapshot(snap1)
		b2.s.RestoreSnapshot(snap2)
		r1 := runTrial(t, b1, trig, pulse, seed)
		r2 := runTrial(t, b2, trig, pulse, seed)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("seed %d diverged:\n  bench1: %+v\n  bench2: %+v", seed, r1, r2)
		}
	}
}

// TestSnapshotComposesGlitcher: capturing mid-run with an armed
// glitcher and restoring replays the identical glitched boot — the
// trigger arming, pulse position, RNG stream, and fault log all ride
// soc.Snapshot through isa.CPUState.
func TestSnapshotComposesGlitcher(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	trig := glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.CheckPC}
	b.g.Arm(trig, fullDepth, 7)
	// Run into the hash loop: armed, trigger not yet fired. The budget
	// expiring mid-program is the point, so a RunawayError is expected.
	if err := b.s.RunCore(0, 40); err != nil && !isRunaway(err) {
		t.Fatal(err)
	}
	if !b.g.Armed() || b.g.Fired() {
		t.Fatalf("armed=%v fired=%v mid-run, want armed and unfired", b.g.Armed(), b.g.Fired())
	}
	snap := b.s.CaptureSnapshot()

	finish := func() trialRecord {
		err := b.boot(t)
		return trialRecord{
			Err:     err != nil,
			Halted:  b.cpu.Halted,
			Code:    b.cpu.HaltCode,
			Status:  b.readU64(testStatusAddr),
			Proof:   b.readU64(testProofAddr),
			Instret: b.cpu.Instret,
			Faults:  append([]glitch.FaultRecord(nil), b.g.Faults()...),
		}
	}
	r1 := finish()
	b.g.Finish()
	b.s.RestoreSnapshot(snap)
	if !b.g.Armed() || b.g.Fired() {
		t.Fatalf("restore did not rewind glitcher arming (armed=%v fired=%v)", b.g.Armed(), b.g.Fired())
	}
	r2 := finish()
	b.g.Finish()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("snapshot replay diverged:\n  first:  %+v\n  replay: %+v", r1, r2)
	}
	if len(r1.Faults) == 0 {
		t.Fatal("replayed trial injected no faults; the test did not exercise the pulse")
	}
}

// TestCrossDomainSRAMUnaffected is the power-domain separation
// property: a glitch pulse on the core domain — at ANY offset, width,
// and depth, including a full rail collapse — never alters a byte of
// SRAM on the separately powered memory domain. This is the paper's
// central claim turned into an invariant: domains are electrically
// independent, so faulting the core cannot reach back into memory-
// domain arrays.
func TestCrossDomainSRAMUnaffected(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	// Fill every memory-domain L2 array with a recognizable pattern and
	// record the exact bytes.
	arrays := b.s.L2.Arrays()
	if len(arrays) == 0 {
		t.Fatal("no L2 arrays on the memory domain")
	}
	want := make([][]byte, len(arrays))
	for i, a := range arrays {
		a.Fill(byte(0xA0 + i&0x0F))
		want[i] = a.Snapshot()
	}
	snap := b.s.CaptureSnapshot()
	trig := glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.HashDonePC}
	seed := uint64(0)
	for _, offset := range []uint64{0, 2, 5} {
		for _, width := range []uint64{1, 8} {
			for _, depth := range []float64{0.10, 0.30, 0.80} { // 0.80 = full collapse request
				b.s.RestoreSnapshot(snap)
				b.g.Arm(trig, glitch.Pulse{Offset: offset, Width: width, Depth: depth}, seed)
				seed++
				_ = b.s.RunCore(0, testRunBudget) // any outcome is fine; the property is about memory
				b.g.Finish()
				for i, a := range arrays {
					if got := a.Snapshot(); !bytes.Equal(got, want[i]) {
						t.Fatalf("pulse (off=%d w=%d d=%.2f) on the core domain altered mem-domain array %s",
							offset, width, depth, a.Name())
					}
				}
			}
		}
	}
}

// TestPulseRailExcursion: the pulse really moves the core rail (so the
// cross-domain test above is not vacuous) and clamps at the SRAM
// retention floor rather than browning out the core-domain arrays.
func TestPulseRailExcursion(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	nominal := b.s.CoreDom.NominalVolts()
	floor := sram.DefaultRetentionModel().RetentionThreshold()
	regfile := b.s.Cores[0].CPU.Regs
	// Glitch the very first fetch so the pulse is open immediately.
	b.g.Arm(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.Entry},
		glitch.Pulse{Offset: 0, Width: 64, Depth: nominal}, 1)
	if err := b.s.RunCore(0, 4); err != nil && !isRunaway(err) {
		t.Fatal(err)
	}
	if got := b.s.CoreDom.Volts(); got != floor {
		t.Fatalf("in-pulse core rail = %.3fV, want retention floor %.3fV", got, floor)
	}
	if !regfile.Powered() {
		t.Fatalf("core-domain array %s browned out inside the pulse", regfile.Name())
	}
	b.g.Finish()
	if got := b.s.CoreDom.Volts(); got != nominal {
		t.Fatalf("post-pulse core rail = %.3fV, want nominal %.3fV", got, nominal)
	}
}

// TestFaultProbabilityRamp pins the voltage-to-probability model.
func TestFaultProbabilityRamp(t *testing.T) {
	const nominal = 0.80
	cases := []struct {
		volts float64
		want  float64
	}{
		{0.80, 0}, {0.736, 0}, {0.75, 0}, // inside the guardband
		{0.44, 1}, {0.30, 1}, {0, 1}, // collapsed
		{0.588, 0.5}, // midpoint of the ramp
	}
	for _, c := range cases {
		got := glitch.FaultProbability(c.volts, nominal)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("FaultProbability(%.3f) = %.4f, want %.4f", c.volts, got, c.want)
		}
	}
}

// TestRestoreBeforeArmDetachesGlitcher: restoring a snapshot taken
// before Arm resets the glitcher to its disarmed baseline. It must not
// report a pending shot, and the restored run must execute unglitched.
func TestRestoreBeforeArmDetachesGlitcher(t *testing.T) {
	b := newBench(t, 0x5EED, true)
	snap := b.s.CaptureSnapshot()
	b.g.Arm(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.BranchPC}, fullDepth, 1)
	b.s.RestoreSnapshot(snap)
	if b.g.Armed() {
		t.Error("glitcher still reports Armed after restoring a snapshot taken before Arm")
	}
	if err := b.boot(t); err != nil {
		t.Fatal(err)
	}
	if b.g.Fired() || len(b.g.Faults()) != 0 || b.bypassed() {
		t.Fatalf("restored-disarmed glitcher acted on the run: fired=%v faults=%v", b.g.Fired(), b.g.Faults())
	}
}

// sharedCoreRun is what an armed glitcher and capturer on one core
// leave behind.
type sharedCoreRun struct {
	trialRecord
	Samples []float32
}

// finishShared runs the bench to completion and records the trial.
func finishShared(t *testing.T, b *bench, c *trace.Capturer) sharedCoreRun {
	t.Helper()
	if err := b.boot(t); err != nil {
		t.Fatal(err)
	}
	return sharedCoreRun{
		trialRecord: trialRecord{
			Halted:  b.cpu.Halted,
			Code:    b.cpu.HaltCode,
			Status:  b.readU64(testStatusAddr),
			Proof:   b.readU64(testProofAddr),
			Instret: b.cpu.Instret,
			Faults:  append([]glitch.FaultRecord(nil), b.g.Faults()...),
		},
		Samples: append([]float32(nil), c.Samples()...),
	}
}

// TestGlitcherAndCapturerShareCore arms a glitcher and a trace capturer
// on the same core, where they share one hook. It pins the order the
// hooked execution body keeps: the capturer records one sample per
// committed instruction and none per faulted one; disarming either
// observer leaves the other attached; and a snapshot taken with both
// attached restores both.
func TestGlitcherAndCapturerShareCore(t *testing.T) {
	pulse := glitch.Pulse{Offset: 0, Width: 12, Depth: 0.5}
	setup := func(t *testing.T) (*bench, *trace.Capturer, glitch.Trigger) {
		b := newBench(t, 0x5EED, true)
		c, err := trace.New(b.s, 0, int(testRunBudget))
		if err != nil {
			t.Fatal(err)
		}
		return b, c, glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: b.rom.HashDonePC}
	}

	t.Run("faulted instructions emit no sample", func(t *testing.T) {
		b, c, trig := setup(t)
		start := b.cpu.Instret
		c.Arm()
		b.g.Arm(trig, pulse, 3)
		run := finishShared(t, b, c)
		c.Disarm()
		b.g.Finish()
		if len(run.Faults) == 0 {
			t.Fatal("the pulse injected no fault; the faulted path went unexercised")
		}
		if want := int(run.Instret-start) - len(run.Faults); len(run.Samples) != want {
			t.Fatalf("captured %d samples; %d instructions retired with %d faulted, want %d",
				len(run.Samples), run.Instret-start, len(run.Faults), want)
		}
	})

	t.Run("disarming the glitcher keeps the capturer", func(t *testing.T) {
		b, c, trig := setup(t)
		start := b.cpu.Instret
		c.Arm()
		b.g.Arm(trig, pulse, 3)
		b.g.Disarm()
		run := finishShared(t, b, c)
		if !c.Armed() || len(run.Faults) != 0 {
			t.Fatalf("capturer armed=%v, faults %v after disarming the glitcher", c.Armed(), run.Faults)
		}
		if got, want := len(run.Samples), int(run.Instret-start); got != want || got == 0 {
			t.Fatalf("captured %d samples over %d retired instructions", got, want)
		}
	})

	t.Run("disarming the capturer keeps the glitcher", func(t *testing.T) {
		b, c, trig := setup(t)
		c.Arm()
		b.g.Arm(trig, pulse, 3)
		c.Disarm()
		run := finishShared(t, b, c)
		if !b.g.Fired() || len(run.Faults) == 0 {
			t.Fatalf("glitcher fired=%v with %d faults after disarming the capturer", b.g.Fired(), len(run.Faults))
		}
		if len(run.Samples) != 0 {
			t.Fatalf("disarmed capturer recorded %d samples", len(run.Samples))
		}
	})

	t.Run("a snapshot restores both", func(t *testing.T) {
		b, c, trig := setup(t)
		c.Arm()
		b.g.Arm(trig, pulse, 3)
		for !b.g.Fired() {
			if err := b.cpu.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // into the pulse
			if err := b.cpu.Step(); err != nil {
				t.Fatal(err)
			}
		}
		cursor := len(c.Samples())
		faults := len(b.g.Faults())
		snap := b.s.CaptureSnapshot()
		first := finishShared(t, b, c)
		c.Disarm()
		b.g.Finish()

		// Restores retire the predecoded i-stream except mask-ROM
		// entries, but fetches never reach the bus tap (DESIGN.md §12),
		// so every replay must record exactly the first run: the
		// architectural outcome and the samples.
		var replays [2]sharedCoreRun
		for i := range replays {
			b.s.RestoreSnapshot(snap)
			if !c.Armed() || len(c.Samples()) != cursor {
				t.Fatalf("restore left capturer armed=%v at cursor %d, want armed at %d", c.Armed(), len(c.Samples()), cursor)
			}
			if !b.g.Armed() || !b.g.Fired() || len(b.g.Faults()) != faults {
				t.Fatalf("restore left glitcher armed=%v fired=%v with %d faults, want armed, fired, %d",
					b.g.Armed(), b.g.Fired(), len(b.g.Faults()), faults)
			}
			replays[i] = finishShared(t, b, c)
			c.Disarm()
			b.g.Finish()
		}
		for i, r := range replays {
			if !reflect.DeepEqual(first.trialRecord, r.trialRecord) {
				t.Fatalf("replay %d from the shared snapshot diverged:\n  first:  %+v\n  replay: %+v", i, first.trialRecord, r.trialRecord)
			}
			if !reflect.DeepEqual(first.Samples, r.Samples) {
				t.Fatalf("replay %d from the shared snapshot captured a different trace than the first run", i)
			}
		}
		if len(first.Faults) <= faults {
			t.Fatal("no fault landed after the snapshot; the replay did not exercise the pulse")
		}
	})
}
