// Package power models the portion of a board's power-delivery network
// that the Volt Boot attack manipulates: the PMIC with its per-domain
// regulators, the SoC's separated power domains, the board-level test pads
// where domain rails are exposed, and external bench supplies that an
// attacker attaches to those pads.
//
// The model is deliberately event-level rather than SPICE-level. What
// matters for the attack (paper §5, §6) is:
//
//   - each power domain has exactly one rail voltage at a time, resolved
//     from whichever sources currently drive it (its PMIC regulator, an
//     attached probe, or nothing);
//   - domains are independent: cutting the PMIC's input collapses every
//     regulator output but leaves an externally probed rail held;
//   - abruptly disconnecting the main supply makes the compute cores dump
//     a brief current surge onto whatever still feeds their domain. A
//     bench supply whose current limit is below the surge droops below the
//     SRAM retention band for the duration of the surge, corrupting data —
//     the reason the paper specifies a >3 A bench supply.
package power

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// RegulatorKind distinguishes the two regulator topologies in Figure 4.
type RegulatorKind int

const (
	// LDO is a low-dropout linear regulator: used for domains with small
	// load fluctuation, decoupled with a single capacitor.
	LDO RegulatorKind = iota
	// Buck is a switching regulator: used for high-fluctuation DVFS
	// domains, with an LC filter on the supply line.
	Buck
)

func (k RegulatorKind) String() string {
	if k == Buck {
		return "BUCK"
	}
	return "LDO"
}

// Load is anything whose state depends on a rail voltage. SRAM arrays,
// register files and cache RAMs implement Load; the Domain pushes every
// rail change to its loads so decay bookkeeping starts and stops at the
// right simulated instants.
type Load interface {
	// SetRail informs the load of its new supply voltage.
	SetRail(volts float64)
	// Name identifies the load for logs.
	Name() string
}

// Domain is one separated power domain of an SoC (core, memory, I/O, or a
// finer-grained split). Its instantaneous voltage is the maximum of the
// voltages offered by its attached sources — an idealization of diode-OR
// behaviour that matches how an attached probe at nominal voltage simply
// takes over when the regulator output collapses.
type Domain struct {
	name string
	//voltvet:nosnap shared simulation clock; owned by the environment and rewound by the SoC snapshot (now/tempC)
	env     *sim.Env
	nominal float64
	// suppliesCores marks domains that also power CPU cores; these
	// experience the disconnect current surge (§6).
	suppliesCores bool
	//voltvet:nosnap rail fan-out wiring assembled at board build; each load restores its own electrical state
	loads   []Load
	sources []Source
	volts   float64
	// ActiveDrawAmps is the domain's demand while the system runs
	// (§6: 400–600 mA through TP15 on a busy Pi 4); RetentionDrawAmps is
	// the SRAM-only leakage once everything else is down (§6: ~8 mA).
	ActiveDrawAmps    float64
	RetentionDrawAmps float64
}

// NewDomain creates a domain with the given nominal voltage. Draw
// defaults reflect a core-class domain (0.5 A active / 8 mA retention)
// or a memory-class one (0.2 A / 2 mA); callers tune the exported fields
// for specific silicon.
func NewDomain(env *sim.Env, name string, nominalVolts float64, suppliesCores bool) *Domain {
	d := &Domain{name: name, env: env, nominal: nominalVolts, suppliesCores: suppliesCores}
	if suppliesCores {
		d.ActiveDrawAmps, d.RetentionDrawAmps = 0.5, 0.008
	} else {
		d.ActiveDrawAmps, d.RetentionDrawAmps = 0.2, 0.002
	}
	return d
}

// sourcesUpExcept reports whether any source other than skip currently
// offers voltage — i.e. the system's own regulators are still feeding
// the domain.
func (d *Domain) sourcesUpExcept(skip Source) bool {
	for _, s := range d.sources {
		if s != skip && s.OfferedVolts() > 0 {
			return true
		}
	}
	return false
}

// Name returns the domain name (e.g. "VDD_CORE").
func (d *Domain) Name() string { return d.name }

// NominalVolts returns the domain's nominal operating voltage.
func (d *Domain) NominalVolts() float64 { return d.nominal }

// SuppliesCores reports whether CPU cores draw from this domain.
func (d *Domain) SuppliesCores() bool { return d.suppliesCores }

// Volts returns the instantaneous rail voltage.
func (d *Domain) Volts() float64 { return d.volts }

// Attach registers a load (an SRAM array, a register file) on the domain
// and immediately informs it of the current rail voltage.
func (d *Domain) Attach(l Load) {
	d.loads = append(d.loads, l)
	l.SetRail(d.volts)
}

// Loads returns the names of attached loads, for reporting.
func (d *Domain) Loads() []string {
	out := make([]string, len(d.loads))
	for i, l := range d.loads {
		out[i] = l.Name()
	}
	return out
}

// Source is a voltage source that can drive a domain: a PMIC regulator
// output or an external probe.
type Source interface {
	// OfferedVolts is the voltage the source currently drives, or 0 if
	// off/disconnected.
	OfferedVolts() float64
	// SourceName identifies the source for logs.
	SourceName() string
	// CurrentLimitAmps is the maximum current the source can deliver
	// while holding its voltage.
	CurrentLimitAmps() float64
}

// AddSource connects a source to the domain and re-resolves the rail.
func (d *Domain) AddSource(s Source) {
	d.sources = append(d.sources, s)
	d.Reresolve()
}

// RemoveSource disconnects a source from the domain and re-resolves.
func (d *Domain) RemoveSource(s Source) {
	for i, cur := range d.sources {
		if cur == s {
			d.sources = append(d.sources[:i], d.sources[i+1:]...)
			break
		}
	}
	d.Reresolve()
}

// Reresolve recomputes the rail voltage from the currently offered source
// voltages and pushes it to every load. Call after any source changes
// state.
func (d *Domain) Reresolve() {
	best := 0.0
	for _, s := range d.sources {
		if v := s.OfferedVolts(); v > best { //voltvet:ignore VV-HOT006 supply seam: a domain is fed by a bench supply or a PMIC channel, decided at wiring time
			best = v
		}
	}
	if best != d.volts {
		d.env.Logf("power", "domain %s rail %.2fV -> %.2fV", d.name, d.volts, best) //voltvet:ignore VV-HOT004 diagnostic logging on a rail transition, not the per-instruction steady state; campaigns attach no log
	}
	d.setVolts(best)
}

func (d *Domain) setVolts(v float64) {
	d.volts = v
	for _, l := range d.loads {
		l.SetRail(v) //voltvet:ignore VV-HOT006 rail fan-out to the sram/dram/cache loads; the load set is topology data, not code
	}
}

// Droop models a transient rail collapse: the rail is forced to sagVolts
// for the given duration, then restored to the resolved source voltage.
// Loads see both edges, so SRAM decay bookkeeping covers exactly the sag
// window. Droop advances the simulation clock by the duration.
func (d *Domain) Droop(sagVolts float64, duration sim.Time) {
	d.env.Logf("power", "domain %s droops to %.2fV for %s", d.name, sagVolts, duration)
	d.setVolts(sagVolts)
	d.env.Advance(duration)
	d.Reresolve()
}

// PulseDown opens a glitch pulse: the rail is forced to sagVolts
// immediately, without advancing the simulation clock — the glitcher
// steps instructions inside the pulse and closes it with PulseEnd.
// Loads see the falling edge at once, so SRAM decay bookkeeping on the
// glitched domain covers exactly the pulse window.
func (d *Domain) PulseDown(sagVolts float64) {
	if sagVolts < 0 {
		sagVolts = 0
	}
	d.env.Logf("power", "domain %s glitch pulse to %.2fV", d.name, sagVolts) //voltvet:ignore VV-HOT004 diagnostic logging on a rail transition, not the per-instruction steady state; campaigns attach no log
	d.setVolts(sagVolts)
}

// PulseEnd closes a glitch pulse opened by PulseDown: the clock advances
// by the pulse width and the rail re-resolves to whatever its sources
// offer, pushing the rising edge to every load.
func (d *Domain) PulseEnd(width sim.Time) {
	d.env.Advance(width)
	d.Reresolve()
}

// Regulator is one output channel of the PMIC. It offers the domain's
// nominal voltage while both the PMIC input supply is present and the
// channel is enabled.
type Regulator struct {
	pmic    *PMIC
	kind    RegulatorKind
	name    string
	volts   float64
	enabled bool
	// maxAmps is the channel's rated output current.
	maxAmps float64
}

// OfferedVolts implements Source.
func (r *Regulator) OfferedVolts() float64 {
	if r.enabled && r.pmic.inputPresent {
		return r.volts
	}
	return 0
}

// SourceName implements Source.
func (r *Regulator) SourceName() string { return r.name }

// CurrentLimitAmps implements Source.
func (r *Regulator) CurrentLimitAmps() float64 { return r.maxAmps }

// Kind returns the regulator topology.
func (r *Regulator) Kind() RegulatorKind { return r.kind }

// SetEnabled switches the channel on or off (runtime power gating) and
// re-resolves its domain.
func (r *Regulator) SetEnabled(on bool) {
	r.enabled = on
	r.pmic.reresolveAll()
}

// PMIC is the external power-management IC: a set of regulator channels
// fed from one input supply (battery or USB).
type PMIC struct {
	name string
	//voltvet:nosnap shared simulation clock; owned by the environment and rewound by the SoC snapshot (now/tempC)
	env          *sim.Env
	inputPresent bool
	//voltvet:nosnap restored element-wise through the channel pointers; the slice itself is wiring
	channels []*Regulator
	//voltvet:nosnap channel-to-domain wiring built at board assembly; never changes afterwards
	domains map[*Regulator]*Domain
}

// NewPMIC creates a PMIC with no channels; input power starts absent.
func NewPMIC(env *sim.Env, name string) *PMIC {
	return &PMIC{name: name, env: env, domains: map[*Regulator]*Domain{}}
}

// Name returns the PMIC part name.
func (p *PMIC) Name() string { return p.name }

// AddChannel creates a regulator channel driving the given domain and
// wires it as a source of that domain.
func (p *PMIC) AddChannel(name string, kind RegulatorKind, maxAmps float64, d *Domain) *Regulator {
	r := &Regulator{pmic: p, kind: kind, name: name, volts: d.NominalVolts(), enabled: true, maxAmps: maxAmps}
	p.channels = append(p.channels, r)
	p.domains[r] = d
	d.AddSource(r)
	return r
}

// Channels returns the regulator channels in creation order.
func (p *PMIC) Channels() []*Regulator {
	out := make([]*Regulator, len(p.channels))
	copy(out, p.channels)
	return out
}

// DomainOf returns the domain a channel drives.
func (p *PMIC) DomainOf(r *Regulator) *Domain { return p.domains[r] }

// InputPresent reports whether the PMIC's input supply is connected.
func (p *PMIC) InputPresent() bool { return p.inputPresent }

// ConnectInput applies input power: every enabled channel comes up.
// Real PMICs sequence domains over microseconds; the ordering does not
// affect any of the paper's results, so channels come up together.
func (p *PMIC) ConnectInput() {
	p.inputPresent = true
	p.env.Logf("pmic", "%s input connected; regulators up", p.name)
	p.reresolveAll()
}

// DisconnectInput abruptly cuts input power: every channel output
// collapses. Domains that also feed CPU cores experience the §6 current
// surge — the dying cores momentarily draw surgeAmps from whatever source
// remains on their domain. If a remaining source cannot deliver the surge,
// the rail droops below the retention band for the surge duration.
func (p *PMIC) DisconnectInput(surge Surge) {
	p.inputPresent = false
	p.env.Logf("pmic", "%s input disconnected", p.name)
	seen := map[*Domain]bool{}
	for _, r := range p.channels {
		d := p.domains[r]
		if seen[d] {
			continue
		}
		seen[d] = true
		d.Reresolve()
		if !d.SuppliesCores() || d.Volts() == 0 {
			continue
		}
		// Some external source is still holding a core-supplying domain:
		// apply the surge test against the strongest remaining source.
		limit := strongestLimit(d)
		if limit < surge.Amps {
			d.Droop(surge.SagTo(d.Volts(), limit), surge.Duration)
		} else {
			p.env.Logf("power", "domain %s held through %0.1fA surge (source limit %.1fA)",
				d.Name(), surge.Amps, limit)
		}
	}
}

func strongestLimit(d *Domain) float64 {
	best := 0.0
	for _, s := range d.sources {
		if s.OfferedVolts() > 0 && s.CurrentLimitAmps() > best {
			best = s.CurrentLimitAmps()
		}
	}
	return best
}

func (p *PMIC) reresolveAll() {
	seen := map[*Domain]bool{}
	for _, r := range p.channels {
		if d := p.domains[r]; !seen[d] {
			seen[d] = true
			d.Reresolve()
		}
	}
}

// Surge describes the transient current demand when the main supply is
// abruptly disconnected while cores are running (§6: 2–3 A momentarily on
// a Raspberry Pi 4's core domain, settling to ~8 mA retention current).
type Surge struct {
	// Amps is the peak surge current demanded from the holding source.
	Amps float64
	// Duration is how long the demand exceeds the retention current.
	Duration sim.Time
	// SagVolts is the floor the rail collapses to when the holding
	// source delivers essentially no current.
	SagVolts float64
}

// SagTo returns the rail voltage during the surge for a source with the
// given current limit: the dying cores behave as a roughly resistive
// load, so a current-limited supply holds a voltage proportional to the
// fraction of the demand it can actually deliver, floored at SagVolts.
func (s Surge) SagTo(nominal, limitAmps float64) float64 {
	if s.Amps <= 0 || limitAmps >= s.Amps {
		return nominal
	}
	v := nominal * (limitAmps / s.Amps)
	if v < s.SagVolts {
		v = s.SagVolts
	}
	return v
}

// DefaultSurge matches the paper's Raspberry Pi 4 observations.
func DefaultSurge() Surge {
	return Surge{Amps: 2.5, Duration: 5 * sim.Microsecond, SagVolts: 0.05}
}

// BenchSupply is the attacker's external probe: a bench power supply
// attached to a board test pad at a set voltage with a given current
// capability. The paper's working setup is >3 A; the ablation sweeps this.
type BenchSupply struct {
	name     string
	env      *sim.Env
	volts    float64
	maxAmps  float64
	attached bool
	domain   *Domain
}

// NewBenchSupply creates a probe set to the given voltage and current
// limit. It starts unattached.
func NewBenchSupply(env *sim.Env, name string, volts, maxAmps float64) *BenchSupply {
	return &BenchSupply{name: name, env: env, volts: volts, maxAmps: maxAmps}
}

// OfferedVolts implements Source.
func (b *BenchSupply) OfferedVolts() float64 {
	if b.attached {
		return b.volts
	}
	return 0
}

// SourceName implements Source.
func (b *BenchSupply) SourceName() string { return b.name }

// CurrentLimitAmps implements Source.
func (b *BenchSupply) CurrentLimitAmps() float64 { return b.maxAmps }

// Volts returns the probe set point.
func (b *BenchSupply) Volts() float64 { return b.volts }

// SetVolts changes the probe set point (and re-resolves if attached).
func (b *BenchSupply) SetVolts(v float64) {
	b.volts = v
	if b.attached && b.domain != nil {
		b.domain.Reresolve()
	}
}

// AttachTo connects the probe to the domain behind a test pad.
func (b *BenchSupply) AttachTo(d *Domain) {
	if b.attached {
		panic("power: probe already attached")
	}
	b.attached = true
	b.domain = d
	d.AddSource(b)
	b.env.Logf("probe", "%s attached to %s at %.2fV (limit %.1fA)", b.name, d.Name(), b.volts, b.maxAmps)
}

// Detach removes the probe from its domain.
func (b *BenchSupply) Detach() {
	if !b.attached {
		return
	}
	b.attached = false
	d := b.domain
	b.domain = nil
	d.RemoveSource(b)
	b.env.Logf("probe", "%s detached from %s", b.name, d.Name())
}

// Attached reports whether the probe is currently connected.
func (b *BenchSupply) Attached() bool { return b.attached }

// CurrentDrawAmps estimates the probe's instantaneous draw: zero when
// detached, the domain's active demand while the system's own regulators
// are also up (the probe shares the running load — §6's 400–600 mA), and
// the retention leakage once everything else is down (§6's ~8 mA).
func (b *BenchSupply) CurrentDrawAmps() float64 {
	if !b.attached || b.domain == nil {
		return 0
	}
	if b.domain.sourcesUpExcept(b) {
		return b.domain.ActiveDrawAmps
	}
	return b.domain.RetentionDrawAmps
}

// Pad is a PCB test point or passive-component lead electrically connected
// to a domain rail — the attachment point for a probe (Table 3).
type Pad struct {
	// Name is the silkscreen designator, e.g. "TP15".
	Name string
	// Domain is the power domain the pad exposes.
	Domain *Domain
}

// Network aggregates a board's power structure for reporting (Figure 4 and
// Table 3 renderings).
type Network struct {
	PMIC *PMIC
	Pads []Pad
}

// Describe renders the network topology in the style of Figure 4: one line
// per regulator channel with its topology and load domain, plus the pad
// map.
func (n *Network) Describe() string {
	out := fmt.Sprintf("PMIC %s (input %v)\n", n.PMIC.Name(), n.PMIC.InputPresent())
	for _, r := range n.PMIC.Channels() {
		d := n.PMIC.DomainOf(r)
		loads := d.Loads()
		sort.Strings(loads)
		out += fmt.Sprintf("  %-10s %-4s -> %-12s %.2fV cores=%-5v loads=%v\n",
			r.SourceName(), r.Kind(), d.Name(), d.NominalVolts(), d.SuppliesCores(), loads)
	}
	for _, p := range n.Pads {
		out += fmt.Sprintf("  pad %-6s -> %s (%.2fV)\n", p.Name, p.Domain.Name(), p.Domain.NominalVolts())
	}
	return out
}
