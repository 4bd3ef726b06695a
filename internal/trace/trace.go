// Package trace is the per-cycle power-trace capturer: the simulated
// oscilloscope clipped onto one core's supply. The interpreter retires
// one instruction per core-clock nanosecond, so one sample per retired
// instruction is one sample per cycle — exactly the per-cycle current
// waveform a shunt resistor on the core rail would show.
//
// The sample model is switching activity plus static draw. Dynamic
// current is proportional to the toggled capacitance of the cycle:
// the Hamming distance of the destination-register writeback (flop
// toggles), the Hamming weight of data driven onto the interconnect,
// the toggles on the address bus between consecutive data accesses
// (which subsumes cache-line-to-line traffic — line index bits are
// address bits), and a per-byte transfer cost. Instruction fetches are
// not counted. The simulator serves most of them from its predecode
// table without a bus access, so counting the rest would make a sample
// depend on interpreter state rather than on the committed instructions
// and their data. With data-independent control flow, as in the AES
// victim, the fetch term would be the same in every trial and leak
// nothing; data-dependent control flow still shows in which
// instructions commit. Static draw is the voltage-proportional leakage
// of the core and memory domains, read from the rails at Arm time so
// undervolted captures sit on a visibly lower baseline. All activity
// terms are integer popcounts accumulated exactly; the single float32
// rounding per term happens in one fixed order, which is what makes
// trace bytes reproducible across architectures and GOMAXPROCS
// settings.
//
// Cost discipline matches the glitcher, with which the capturer shares
// the core's one hook pointer (isa.CPU.Hooks): a core with nothing
// attached pays one nil check per instruction, per GPR write and per
// bus access. The armed emit path is direct field arithmetic on a
// shared isa.TraceSink — no interface dispatch — and allocation-free
// (samples land in a preallocated arena by cursor bump), pinned
// statically by voltvet's hot-path checks (the emit path is in the
// closure of the isa.CPU.Step root) and dynamically by
// TestStepTraceArmedZeroAlloc.
// A capture is not snapshot state: each trial restores its
// copy-on-write snapshot first and arms after, and soc.Snapshot refuses
// to capture or restore while the capturer is attached to its core.
package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/soc"
)

// Model gains. The absolute scale is arbitrary (normalized current
// units); what matters for SPA/CPA is that the data-dependent term is
// linear in toggled bits and the static term tracks rail voltage.
const (
	// The dynamic gain — current per toggled/driven bit — is fixed at
	// 1: one unit per popcount, applied implicitly (a multiply by 1.0
	// on the emit path would cost a float op and change nothing).
	//
	// gainStaticCore/Mem are the per-volt static draws of the two
	// SRAM-bearing domains (the VDD_IO rail carries no SRAM and is
	// omitted). At BCM2711 nominals (0.80 V core, 1.10 V mem) the
	// quiescent baseline is 0.40 + 0.22 = 0.62 units.
	gainStaticCore float32 = 0.5
	gainStaticMem  float32 = 0.2
)

// Capturer records one power trace per Arm/Disarm cycle from the core
// it is bound to. It owns an isa.TraceSink — the shared sample buffer
// the retire, writeback, and bus taps write into directly. Arm attaches
// the sink to the core's hooks, which all three taps read; Disarm
// detaches it. The bus tap counts only the bound core's data accesses,
// so an armed window should run no other core.
type Capturer struct {
	cpu *isa.CPU
	// coreDom/memDom are the rails the static-draw term reads at Arm.
	coreDom, memDom *power.Domain

	armed bool
	// sink holds the arena, cursor, and activity accumulators. It lives
	// in the capturer by value; the taps hold a pointer while armed.
	sink isa.TraceSink
}

// New binds a capturer to core `core` of s with an arena of `samples`
// samples. The capturer starts disarmed and costs nothing until Arm.
func New(s *soc.SoC, core int, samples int) (*Capturer, error) {
	if core < 0 || core >= len(s.Cores) {
		return nil, fmt.Errorf("trace: core %d out of range", core)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("trace: arena must hold at least one sample, got %d", samples)
	}
	c := &Capturer{
		cpu:     s.Cores[core].CPU,
		coreDom: s.CoreDom,
		memDom:  s.MemDom,
	}
	c.sink.Buf = make([]float32, samples)
	return c, nil
}

// Arm starts a capture: the arena cursor rewinds, the static-draw term
// is resolved from the live rails, and the sink attaches to the core's
// hooks (isa.CPU.AttachTrace), where the retire, writeback and bus taps
// read it. While armed, the SoC dispatcher single-steps the traced core,
// as it does a glitched one, so only armed windows pay the
// per-instruction path. A glitcher attached to the same core stays
// attached.
func (c *Capturer) Arm() {
	c.armed = true
	c.sink.N = 0
	c.sink.BusAct = 0
	c.sink.LastAddr = 0
	c.sink.Static = staticDraw(c.coreDom.Volts(), c.memDom.Volts())
	c.cpu.AttachTrace(&c.sink)
}

// Disarm stops the capture and detaches the sink from the core. The
// recorded samples stay readable through Samples until the next Arm.
// Disarming a capturer another capturer has superseded leaves the
// active one attached.
func (c *Capturer) Disarm() {
	c.armed = false
	c.cpu.DetachTrace(&c.sink)
}

// staticDraw folds the two rail voltages into the per-sample static
// term. One rounding per term, in fixed order: the explicit conversions
// and single-op statements keep the float pipeline FMA-free, so the
// term — and with it every trace byte — is bit-stable across runs and
// architectures.
func staticDraw(coreVolts, memVolts float64) float32 {
	stat := float32(coreVolts) * gainStaticCore
	stat = stat + float32(memVolts)*gainStaticMem
	return stat
}

// Armed reports whether a capture is in progress.
func (c *Capturer) Armed() bool { return c.armed }

// Samples returns the recorded trace: one float32 per instruction
// retired while armed, in retirement order. The slice aliases the
// arena; it is valid until the next Arm.
func (c *Capturer) Samples() []float32 { return c.sink.Buf[:c.sink.N] }

// Capacity returns the arena size in samples.
func (c *Capturer) Capacity() int { return len(c.sink.Buf) }
