package power

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// railRecorder is a Load that records every rail change it sees.
type railRecorder struct {
	name    string
	volts   float64
	history []float64
}

func (r *railRecorder) SetRail(v float64) {
	r.volts = v
	r.history = append(r.history, v)
}
func (r *railRecorder) Name() string { return r.name }

func newRig(env *sim.Env) (*PMIC, *Domain, *Domain, *railRecorder, *railRecorder) {
	pmic := NewPMIC("TESTPMIC")
	core := NewDomain(env, "VDD_CORE", 0.8, true)
	mem := NewDomain(env, "VDD_MEM", 1.1, false)
	pmic.AddChannel("BUCK1", Buck, 4, core)
	pmic.AddChannel("LDO2", LDO, 1, mem)
	coreLoad := &railRecorder{name: "l1cache"}
	memLoad := &railRecorder{name: "l2cache"}
	core.Attach(coreLoad)
	mem.Attach(memLoad)
	return pmic, core, mem, coreLoad, memLoad
}

func TestPMICBringUp(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, mem, coreLoad, memLoad := newRig(env)
	if core.Volts() != 0 || mem.Volts() != 0 {
		t.Fatal("domains must start unpowered")
	}
	pmic.ConnectInput()
	if core.Volts() != 0.8 || mem.Volts() != 1.1 {
		t.Fatalf("rails after bring-up: core=%v mem=%v", core.Volts(), mem.Volts())
	}
	if coreLoad.volts != 0.8 || memLoad.volts != 1.1 {
		t.Fatal("loads did not observe rail changes")
	}
}

func TestDisconnectCollapsesAllDomains(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, mem, _, _ := newRig(env)
	pmic.ConnectInput()
	pmic.DisconnectInput(defaultSurge())
	if core.Volts() != 0 || mem.Volts() != 0 {
		t.Fatalf("rails after disconnect: core=%v mem=%v", core.Volts(), mem.Volts())
	}
}

func TestProbeHoldsDomainThroughDisconnect(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, mem, coreLoad, _ := newRig(env)
	pmic.ConnectInput()
	probe := NewBenchSupply("bench", 0.8, 3.5)
	probe.AttachTo(core)
	pmic.DisconnectInput(defaultSurge())
	if core.Volts() != 0.8 {
		t.Fatalf("probed core domain = %vV, want 0.8", core.Volts())
	}
	if mem.Volts() != 0 {
		t.Fatalf("unprobed mem domain = %vV, want 0", mem.Volts())
	}
	// A strong probe must not have exposed the load to any sag.
	for _, v := range coreLoad.history {
		if v > 0 && v < 0.8 {
			t.Fatalf("strong probe allowed sag to %vV", v)
		}
	}
}

func TestWeakProbeDroopsDuringSurge(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, _, coreLoad, _ := newRig(env)
	pmic.ConnectInput()
	probe := NewBenchSupply("weak", 0.8, 0.5) // below the 2.5A surge
	probe.AttachTo(core)
	before := env.Now()
	pmic.DisconnectInput(defaultSurge())
	// The load must have seen the deficit-proportional sag voltage
	// (0.8V × 0.5A/2.5A = 0.16V) and then recovery.
	wantSag := defaultSurge().SagTo(0.8, 0.5)
	sawSag, sawRecover := false, false
	for _, v := range coreLoad.history {
		if v == wantSag {
			sawSag = true
		}
		if sawSag && v == 0.8 {
			sawRecover = true
		}
	}
	if !sawSag || !sawRecover {
		t.Fatalf("weak probe droop not observed: history=%v", coreLoad.history)
	}
	if env.Now()-before != defaultSurge().Duration {
		t.Fatalf("droop must advance the clock by the surge duration")
	}
	if core.Volts() != 0.8 {
		t.Fatalf("rail must recover to probe voltage, got %v", core.Volts())
	}
}

func TestSurgeOnlyAffectsCoreDomains(t *testing.T) {
	env := sim.NewEnv()
	pmic, _, mem, _, memLoad := newRig(env)
	pmic.ConnectInput()
	probe := NewBenchSupply("weak", 1.1, 0.1) // tiny, but memory domain: no surge
	probe.AttachTo(mem)
	pmic.DisconnectInput(defaultSurge())
	if mem.Volts() != 1.1 {
		t.Fatalf("probed memory domain = %v, want 1.1", mem.Volts())
	}
	for _, v := range memLoad.history {
		if v > 0 && v < 1.1 {
			t.Fatalf("memory domain should not sag, saw %v", v)
		}
	}
}

func TestProbeDetachDropsRail(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, _, _, _ := newRig(env)
	pmic.ConnectInput()
	probe := NewBenchSupply("bench", 0.8, 3.5)
	probe.AttachTo(core)
	pmic.DisconnectInput(defaultSurge())
	probe.Detach()
	if core.Volts() != 0 {
		t.Fatalf("rail after detach = %v", core.Volts())
	}
	if probe.attached {
		t.Fatal("probe should report detached")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	env := sim.NewEnv()
	_, core, mem, _, _ := newRig(env)
	probe := NewBenchSupply("bench", 0.8, 3.5)
	probe.AttachTo(core)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second AttachTo")
		}
	}()
	probe.AttachTo(mem)
}

func TestReconnectRestoresRails(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, mem, _, _ := newRig(env)
	pmic.ConnectInput()
	pmic.DisconnectInput(defaultSurge())
	env.Advance(200 * sim.Millisecond)
	pmic.ConnectInput()
	if core.Volts() != 0.8 || mem.Volts() != 1.1 {
		t.Fatalf("rails after reconnect: %v, %v", core.Volts(), mem.Volts())
	}
}

func TestDomainResolvesMaxOfSources(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, _, _, _ := newRig(env)
	pmic.ConnectInput()
	low := NewBenchSupply("lowprobe", 0.5, 3)
	low.AttachTo(core)
	if core.Volts() != 0.8 {
		t.Fatalf("regulator at 0.8 should win over 0.5 probe, got %v", core.Volts())
	}
	low.SetVolts(0.9)
	if core.Volts() != 0.9 {
		t.Fatalf("probe raised to 0.9 should win, got %v", core.Volts())
	}
}

func TestNetworkDescribe(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, mem, _, _ := newRig(env)
	n := &Network{PMIC: pmic, Pads: []Pad{{Name: "TP15", Domain: core}, {Name: "TP7", Domain: mem}}}
	s := n.Describe()
	for _, want := range []string{"BUCK1", "LDO2", "VDD_CORE", "VDD_MEM", "TP15", "l1cache", "l2cache"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe() missing %q:\n%s", want, s)
		}
	}
}

func TestRegulatorKindString(t *testing.T) {
	if LDO.String() != "LDO" || Buck.String() != "BUCK" {
		t.Fatal("RegulatorKind strings wrong")
	}
}

func TestSagToProportionalModel(t *testing.T) {
	s := defaultSurge()
	// At or above the surge demand: no sag at all.
	if v := s.SagTo(0.8, 2.5); v != 0.8 {
		t.Fatalf("SagTo at full current = %v", v)
	}
	if v := s.SagTo(0.8, 10); v != 0.8 {
		t.Fatalf("SagTo above demand = %v", v)
	}
	// Half the demand: half the rail.
	if v := s.SagTo(0.8, 1.25); v != 0.4 {
		t.Fatalf("SagTo at half current = %v", v)
	}
	// Negligible current: floored at SagVolts.
	if v := s.SagTo(0.8, 0.01); v != s.SagVolts {
		t.Fatalf("SagTo floor = %v", v)
	}
	// Monotone in the limit.
	prev := -1.0
	for _, amps := range []float64{0.1, 0.5, 1, 1.5, 2, 2.4, 2.5} {
		v := s.SagTo(0.8, amps)
		if v < prev {
			t.Fatalf("SagTo not monotone at %vA", amps)
		}
		prev = v
	}
}

func TestProbeCurrentDrawTelemetry(t *testing.T) {
	env := sim.NewEnv()
	pmic, core, _, _, _ := newRig(env)
	pmic.ConnectInput()
	probe := NewBenchSupply("bench", 0.8, 3.5)
	if probe.CurrentDrawAmps() != 0 {
		t.Fatal("detached probe should draw nothing")
	}
	probe.AttachTo(core)
	// System running: probe shares the active load (§6: 400-600mA).
	if got := probe.CurrentDrawAmps(); got != core.ActiveDrawAmps {
		t.Fatalf("active draw = %v, want %v", got, core.ActiveDrawAmps)
	}
	pmic.DisconnectInput(defaultSurge())
	// Retention state: ~8mA.
	if got := probe.CurrentDrawAmps(); got != core.RetentionDrawAmps {
		t.Fatalf("retention draw = %v, want %v", got, core.RetentionDrawAmps)
	}
	pmic.ConnectInput()
	if got := probe.CurrentDrawAmps(); got != core.ActiveDrawAmps {
		t.Fatalf("draw after reconnect = %v", got)
	}
}

func TestDomainDrawDefaults(t *testing.T) {
	env := sim.NewEnv()
	core := NewDomain(env, "c", 0.8, true)
	mem := NewDomain(env, "m", 1.1, false)
	if core.RetentionDrawAmps != 0.008 {
		t.Fatalf("core retention draw = %v, want 8mA", core.RetentionDrawAmps)
	}
	if mem.ActiveDrawAmps >= core.ActiveDrawAmps {
		t.Fatal("memory domain should draw less than the core domain")
	}
}

// defaultSurge matches the paper's Raspberry Pi 4 observations.
func defaultSurge() Surge {
	return Surge{Amps: 2.5, Duration: 5 * sim.Microsecond, SagVolts: 0.05}
}
