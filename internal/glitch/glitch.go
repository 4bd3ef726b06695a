// Package glitch is the voltage-glitch fault-injection engine: the
// bridge between the power model (a transient rail sag on one domain)
// and the ISA model (instructions that skip, corrupt their destination,
// or branch the wrong way while the rail is inside the pulse).
//
// A Glitcher is bound to one CPU and one power domain. Arm gives it a
// trigger (the first fetch of a code address, as a campaign times its
// pulse from a known point in the target's code) and a pulse (offset
// from the trigger, width, and depth, all in instructions ≈ core-clock
// nanoseconds and volts). From then on it rides CPU.ExecDecoded through
// the isa.FaultInjector hook: it watches each fetch for the trigger
// address, counts instructions from there, drives the domain rail down
// at the pulse's leading edge (power.Domain.PulseDown, which every load
// on the domain observes), and while the rail is inside the pulse each
// instruction faults with a voltage-dependent probability drawn
// from the glitcher's own RNG. The trailing edge advances the
// simulation clock by the pulse width and re-resolves the rail. One
// shot per Arm: after the pulse closes the glitcher detaches from the
// CPU, so the rest of the run executes at full speed.
//
// Determinism: the glitcher owns a private xrand stream seeded at Arm —
// the simulation's env carries no RNG — so a trial is a pure function
// of (board seed, trigger, pulse, glitch seed). The glitcher is not
// snapshot state: a trial restores its copy-on-write snapshot, arms,
// runs and finishes, and soc.Snapshot refuses to capture or restore
// while the glitcher is attached to its core.
package glitch

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sram"
	"repro/internal/xrand"
)

// TriggerKind names a trigger's event. The first fetch of Trigger.Addr
// is the only one; TriggerKind, TriggerFetchAddr and Trigger.Kind stay
// only because perfbench names them.
type TriggerKind uint8

// TriggerFetchAddr fires on the first fetch of Trigger.Addr — a
// breakpoint-style trigger on a known code address.
const TriggerFetchAddr TriggerKind = 1

// Trigger describes the event that starts the pulse offset countdown:
// the first fetch of Addr.
type Trigger struct {
	// Kind is ignored; see TriggerKind.
	Kind TriggerKind
	// Addr is the fetch address to match.
	Addr uint64
}

// Pulse parameterizes the glitch waveform. Offset and Width are in
// instructions — the interpreter retires one instruction per core-clock
// nanosecond, so they double as nanoseconds. Depth is how far below the
// domain's nominal voltage the rail is driven.
type Pulse struct {
	// Offset is the number of instructions between the trigger and the
	// pulse's leading edge; 0 puts the trigger instruction itself inside
	// the pulse.
	Offset uint64
	// Width is the number of instructions inside the pulse (min 1).
	Width uint64
	// Depth is the sag below nominal, in volts. The rail actually driven
	// clamps at the glitcher's retention floor (see Glitcher): the
	// on-die decoupling capacitance filters nanosecond-scale transients,
	// so deeper external pulses push fault probability to 1 without
	// discharging the SRAM cells below their data retention voltage.
	Depth float64
}

// FaultProbability maps the instantaneous rail voltage to the
// per-instruction fault probability: 0 at or above 92 % of nominal (the
// design guardband absorbs the sag), 1 at or below 55 % (every path
// misses timing), linear between — the monotone ramp the glitching
// literature measures between "no effect" and "reset/crash" depths.
func FaultProbability(volts, nominal float64) float64 {
	hi := 0.92 * nominal
	lo := 0.55 * nominal
	switch {
	case volts >= hi:
		return 0
	case volts <= lo:
		return 1
	default:
		return (hi - volts) / (hi - lo)
	}
}

// FaultRecord logs one injected fault.
type FaultRecord struct {
	// PC and Instret locate the faulted instruction.
	PC      uint64
	Instret uint64
	Op      isa.Op
	Kind    isa.FaultKind
	// Bit is the flipped destination bit for corrupt faults.
	Bit uint8
}

func (r FaultRecord) String() string {
	if r.Kind == isa.FaultCorrupt {
		return fmt.Sprintf("%s bit %d at PC %#x (instret %d)", r.Kind, r.Bit, r.PC, r.Instret)
	}
	return fmt.Sprintf("%s at PC %#x (instret %d)", r.Kind, r.PC, r.Instret)
}

// Glitcher drives parameterized voltage pulses into one power domain
// and injects the resulting instruction faults into one CPU. Zero value
// is not usable; use New.
type Glitcher struct {
	dom *power.Domain
	cpu *isa.CPU
	rng *xrand.Rand

	trig  Trigger
	pulse Pulse

	armed   bool
	fired   bool // trigger seen
	inPulse bool
	// trigInstret is Instret when the trigger fired (offset base).
	trigInstret uint64

	// floor is the lowest rail the pulse physically drives. Nanosecond
	// pulses cannot discharge the on-die decap past the SRAM population
	// retention threshold, so arrays on the glitched domain hold their
	// contents through the pulse while the logic (whose timing margin
	// tracks the full external depth) faults — which is why real voltage
	// glitches corrupt execution without wiping architectural state.
	floor float64

	faults []FaultRecord
}

// New binds a glitcher to the domain it pulses and the CPU it faults.
// The glitcher starts disarmed and costs the CPU nothing until Arm.
func New(dom *power.Domain, cpu *isa.CPU) *Glitcher {
	return &Glitcher{
		dom:   dom,
		cpu:   cpu,
		rng:   xrand.New(0),
		floor: sram.RetentionThreshold,
	}
}

// Arm programs one shot: trigger, pulse, and the seed for this shot's
// fault draws. The glitcher attaches itself to the CPU's hooks
// (isa.CPU.AttachFault); the SoC's superblock dispatcher still runs the
// core in blocks, consulting the glitcher before every instruction and
// re-validating each block after every one, so the pulse edges land
// between exact instructions. It detaches again when the pulse closes,
// on Finish, or on Disarm; a trace capturer attached to the same core
// stays attached either way.
func (g *Glitcher) Arm(t Trigger, p Pulse, seed uint64) {
	if p.Width == 0 {
		p.Width = 1
	}
	g.trig = t
	g.pulse = p
	g.rng = xrand.New(seed)
	g.armed = true
	g.fired = false
	g.inPulse = false
	g.trigInstret = 0
	g.faults = g.faults[:0]
	g.cpu.AttachFault(g)
}

// Disarm cancels the shot: if the pulse is open it closes (the clock
// advances by the pulse width, the rail re-resolves), and the glitcher
// detaches from the CPU.
func (g *Glitcher) Disarm() {
	if g.inPulse {
		g.closePulse()
	}
	// fired stays readable until the next Arm: the one-shot auto-disarm
	// at the trailing edge goes through here too, and callers score the
	// trial (Finish, Fired) after that.
	g.armed = false
	g.cpu.DetachFault(g) //voltvet:ignore VV-HOT004 runs once per shot, at the pulse's trailing edge, not per instruction; a pointer boxes into the interface without allocating
}

// Finish ends a trial: like Disarm, but also reports whether the
// trigger ever fired. Call after the glitched run completes (the core
// may halt with the pulse still open — e.g. a lockdown HLT inside the
// pulse — and the rail must come back before the trial is scored).
func (g *Glitcher) Finish() bool {
	fired := g.fired
	g.Disarm()
	return fired
}

// Faults returns the faults injected by the current/last shot, in
// program order. The slice is reused by the next Arm.
func (g *Glitcher) Faults() []FaultRecord { return g.faults }

// closePulse ends the voltage pulse: the simulation clock advances by
// the pulse width (instructions ≈ nanoseconds) and the rail re-resolves
// to its sources.
func (g *Glitcher) closePulse() {
	g.inPulse = false
	g.dom.PulseEnd(sim.Time(g.pulse.Width) * sim.Nanosecond)
}

// OnInstr implements isa.FaultInjector: the per-instruction state
// machine. The trigger is checked against the pre-instruction state (PC
// at the instruction about to execute), and instruction i (counted from
// the trigger instruction as 0) is inside the pulse iff
// Offset <= i < Offset+Width.
func (g *Glitcher) OnInstr(c *isa.CPU, in isa.Instr) isa.FaultDecision {
	if !g.armed {
		return isa.FaultDecision{}
	}
	if !g.fired {
		if c.PC != g.trig.Addr {
			return isa.FaultDecision{}
		}
		g.fired = true
		g.trigInstret = c.Instret
	}
	since := c.Instret - g.trigInstret
	if since < g.pulse.Offset {
		return isa.FaultDecision{}
	}
	if since >= g.pulse.Offset+g.pulse.Width {
		// One shot: close the pulse and detach from the CPU so the rest
		// of the run pays nothing.
		g.Disarm()
		return isa.FaultDecision{}
	}
	if !g.inPulse {
		g.inPulse = true
		sag := g.dom.NominalVolts() - g.pulse.Depth
		if sag < g.floor {
			sag = g.floor
		}
		g.dom.PulseDown(sag)
	}
	// Voltage-dependent draw, read off the live rail: a shallower-than-
	// guardband pulse yields p == 0 (the retention floor sits below the
	// p == 1 collapse voltage, so the clamp never weakens a deep pulse),
	// and the RNG still advances exactly once per in-pulse instruction,
	// keeping the stream position independent of the rail outcome.
	p := FaultProbability(g.dom.Volts(), g.dom.NominalVolts())
	if !g.rng.Bernoulli(p) {
		return isa.FaultDecision{}
	}
	u := g.rng.Uint64()
	d := decide(in.Op, u)
	g.faults = append(g.faults, FaultRecord{
		PC: c.PC, Instret: c.Instret, Op: in.Op, Kind: d.Kind, Bit: d.Bit,
	})
	return d
}

// decide maps one RNG draw to a fault mode legal for op: skip is always
// available, corrupt only for ops with a GPR destination, wrong-branch
// only for branches — illegal picks degrade to skip, the mode every
// timing violation can produce.
func decide(op isa.Op, u uint64) isa.FaultDecision {
	d := isa.FaultDecision{Bit: uint8(u>>8) & 63}
	switch u % 3 {
	case 0:
		d.Kind = isa.FaultSkip
	case 1:
		if isa.HasGPRDest(op) {
			d.Kind = isa.FaultCorrupt
		} else {
			d.Kind = isa.FaultSkip
		}
	default:
		if isa.IsBranch(op) {
			d.Kind = isa.FaultWrongBranch
		} else {
			d.Kind = isa.FaultSkip
		}
	}
	return d
}

var _ isa.FaultInjector = (*Glitcher)(nil)
