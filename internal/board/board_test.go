package board

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

func newBoard(t testing.TB, spec soc.DeviceSpec) (*Board, *sim.Env) {
	t.Helper()
	env := sim.NewEnv()
	b, err := New(env, spec, soc.Options{}, 0xB0A2D)
	if err != nil {
		t.Fatal(err)
	}
	return b, env
}

func TestMainPowerBringUp(t *testing.T) {
	b, _ := newBoard(t, soc.BCM2711())
	if b.SoC.Powered() {
		t.Fatal("SoC powered before main connect")
	}
	b.ConnectMain()
	if !b.SoC.Powered() {
		t.Fatal("SoC not powered after main connect")
	}
	if b.SoC.CoreDom.Volts() != 0.8 || b.SoC.MemDom.Volts() != 1.1 {
		t.Fatalf("rails = %v / %v", b.SoC.CoreDom.Volts(), b.SoC.MemDom.Volts())
	}
	b.DisconnectMain()
	if b.SoC.Powered() || b.SoC.CoreDom.Volts() != 0 {
		t.Fatal("SoC still powered after disconnect")
	}
}

func TestIdempotentConnects(t *testing.T) {
	b, _ := newBoard(t, soc.BCM2711())
	b.ConnectMain()
	b.ConnectMain()
	b.DisconnectMain()
	b.DisconnectMain()
	if b.PMIC.InputPresent() {
		t.Fatal("should be disconnected")
	}
}

func TestPadCatalog(t *testing.T) {
	cases := []struct {
		spec   soc.DeviceSpec
		pad    string
		domain string
		volts  float64
	}{
		{soc.BCM2711(), "TP15", "VDD_CORE", 0.8},
		{soc.BCM2837(), "PP58", "VDD_CORE", 1.2},
		{soc.IMX53(), "SH13", "VDDAL1", 1.3},
	}
	for _, c := range cases {
		b, _ := newBoard(t, c.spec)
		pad := b.TargetPad()
		if pad.Name != c.pad {
			t.Errorf("%s pad = %s, want %s", c.spec.Board, pad.Name, c.pad)
		}
		if pad.Domain.Name() != c.domain {
			t.Errorf("%s pad domain = %s, want %s", c.spec.Board, pad.Domain.Name(), c.domain)
		}
		if pad.Domain.NominalVolts() != c.volts {
			t.Errorf("%s pad volts = %v, want %v", c.spec.Board, pad.Domain.NominalVolts(), c.volts)
		}
	}
}

func TestPadByNameUnknown(t *testing.T) {
	b, _ := newBoard(t, soc.BCM2711())
	if _, err := b.PadByName("TP99"); err == nil {
		t.Fatal("unknown pad should error")
	}
}

func TestAttachProbeSetsNominalVoltage(t *testing.T) {
	b, _ := newBoard(t, soc.BCM2711())
	b.ConnectMain()
	psu := power.NewBenchSupply("bench", 0, 3.5) // wrong voltage on purpose
	if err := b.AttachProbe("TP15", psu); err != nil {
		t.Fatal(err)
	}
	if psu.OfferedVolts() != 0.8 {
		t.Fatalf("probe volts = %v, want matched 0.8", psu.OfferedVolts())
	}
}

// The full physical Volt Boot sequence at board level: probe the pad,
// yank main power, wait longer than any intrinsic retention, replug —
// the probed domain's SRAM must be bit-exact.
func TestVoltBootRetentionAtBoardLevel(t *testing.T) {
	b, env := newBoard(t, soc.BCM2711())
	b.ConnectMain()
	core := b.SoC.Cores[0]
	core.L1D.Arrays()[0].Fill(0xC5)
	before := core.L1D.DumpWay(0)
	regBefore := core.CPU.Regs.Snapshot()

	psu := power.NewBenchSupply("bench", 0, 3.5)
	if err := b.AttachProbe("TP15", psu); err != nil {
		t.Fatal(err)
	}
	b.DisconnectMain()
	env.Advance(2 * sim.Second) // manual replug takes seconds
	b.ConnectMain()

	if hd := analysis.FractionalHD(before, core.L1D.DumpWay(0)); hd != 0 {
		t.Fatalf("probed L1D lost data: HD %v", hd)
	}
	if hd := analysis.FractionalHD(regBefore, core.CPU.Regs.Snapshot()); hd != 0 {
		t.Fatalf("probed register file lost data: HD %v", hd)
	}
}

// Without the probe, the same power cycle erases everything — the §3
// baseline.
func TestPowerCycleWithoutProbeErases(t *testing.T) {
	b, env := newBoard(t, soc.BCM2711())
	b.ConnectMain()
	core := b.SoC.Cores[0]
	core.L1D.Arrays()[0].Fill(0xC5)
	before := core.L1D.DumpWay(0)

	b.DisconnectMain()
	env.Advance(2 * sim.Second)
	b.ConnectMain()

	if hd := analysis.FractionalHD(before, core.L1D.DumpWay(0)); hd < 0.4 {
		t.Fatalf("unprobed L1D retained data: HD %v", hd)
	}
}

// An under-provisioned probe on a core-supplying domain loses data to the
// disconnect surge (§6).
func TestWeakProbeCorruptsCoreDomain(t *testing.T) {
	b, env := newBoard(t, soc.BCM2711())
	b.ConnectMain()
	core := b.SoC.Cores[0]
	core.L1D.Arrays()[0].Fill(0xC5)
	before := core.L1D.DumpWay(0)

	psu := power.NewBenchSupply("weak", 0, 0.3) // « 2.5A surge
	if err := b.AttachProbe("TP15", psu); err != nil {
		t.Fatal(err)
	}
	b.DisconnectMain()
	env.Advance(2 * sim.Second)
	b.ConnectMain()

	hd := analysis.FractionalHD(before, core.L1D.DumpWay(0))
	if hd == 0 {
		t.Fatal("weak probe should have corrupted some cells during the surge")
	}
}

// The i.MX53's target domain (VDDAL1) does not supply CPU cores, so even
// a small probe holds it cleanly.
func TestIMX53MemoryDomainProbeNeedsLittleCurrent(t *testing.T) {
	b, env := newBoard(t, soc.IMX53())
	b.ConnectMain()
	pattern := make([]byte, b.Spec().IRAMBytes)
	for i := range pattern {
		pattern[i] = 0x3C
	}
	if err := b.SoC.JTAGWriteIRAM(0, pattern); err != nil {
		t.Fatal(err)
	}

	psu := power.NewBenchSupply("small", 0, 0.1)
	if err := b.AttachProbe("SH13", psu); err != nil {
		t.Fatal(err)
	}
	b.DisconnectMain()
	env.Advance(2 * sim.Second)
	b.ConnectMain()

	after, err := b.SoC.JTAGReadIRAM(0, b.Spec().IRAMBytes)
	if err != nil {
		t.Fatal(err)
	}
	if hd := analysis.FractionalHD(pattern, after); hd != 0 {
		t.Fatalf("iRAM lost data behind a held memory domain: HD %v", hd)
	}
}

func TestChamberControlsEnvironment(t *testing.T) {
	_, env := newBoard(t, soc.BCM2711())
	ch := NewChamber(env)
	ch.Soak(-40)
	if env.TemperatureC() != -40 {
		t.Fatalf("temperature = %v", env.TemperatureC())
	}
}

func TestPowerNetworkDescription(t *testing.T) {
	b, _ := newBoard(t, soc.BCM2711())
	desc := b.PowerNetwork().Describe()
	for _, want := range []string{"MxL7704", "BUCK1", "LDO1", "VDD_CORE", "TP15"} {
		if !strings.Contains(desc, want) {
			t.Errorf("network description missing %q:\n%s", want, desc)
		}
	}
}

func TestBootFromBoard(t *testing.T) {
	b, _ := newBoard(t, soc.BCM2711())
	b.ConnectMain()
	if err := b.SoC.Boot(nil); err != nil {
		t.Fatal(err)
	}
}
