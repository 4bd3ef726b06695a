package isa

// Hooks are the observers attached to one core: the voltage glitcher's
// fault injector and the power-trace capturer's sink and probe. They
// share one seam. CPU.Hooks is nil unless a fault injector or a sink is
// attached, and every tap tests that one pointer:
//
//   - retire: ExecDecoded runs exec, or execHooked when Hooks is set;
//   - writeback: writeX feeds Sink the flop toggles of each GPR write;
//   - bus: the SoC's access path feeds the issuing core's Sink its
//     loads and stores; instruction fetches stay off the tap.
//
// The SoC's superblock dispatcher single-steps a core whose Hooks is
// set, so every hooked instruction runs through execHooked.
//
// A probe without a sink (a capturer restored disarmed) leaves Hooks
// nil: it rides along in snapshots but observes nothing, so it must not
// cost the step path anything.
type Hooks struct {
	// Fault, when set, is consulted before every instruction and may
	// replace its execution with an injected fault (see FaultInjector).
	Fault FaultInjector
	// Sink receives the switching activity and one sample per committed
	// instruction (see TraceSink).
	Sink *TraceSink
	// Probe is the sink owner's snapshot handle (see TraceProbe).
	Probe TraceProbe
}

// AttachFault makes inj the core's fault injector, replacing any other.
func (c *CPU) AttachFault(inj FaultInjector) {
	c.hooks.Fault = inj
	c.rehook()
}

// DetachFault removes inj if it is the attached injector; an injector
// that was superseded cannot detach its successor.
func (c *CPU) DetachFault(inj FaultInjector) {
	if c.hooks.Fault == inj {
		c.hooks.Fault = nil
		c.rehook()
	}
}

// AttachTrace makes p the core's trace probe and sink the buffer its
// taps write into, replacing any other capturer.
func (c *CPU) AttachTrace(p TraceProbe, sink *TraceSink) {
	c.hooks.Probe = p
	c.hooks.Sink = sink
	c.rehook()
}

// DetachTrace removes p and its sink if p is the attached probe.
func (c *CPU) DetachTrace(p TraceProbe) {
	if c.hooks.Probe == p {
		c.hooks.Probe = nil
		c.hooks.Sink = nil
		c.rehook()
	}
}

// rehook points Hooks at hooks exactly while something on the step path
// observes the core.
func (c *CPU) rehook() {
	if c.hooks.Fault != nil || c.hooks.Sink != nil {
		c.Hooks = &c.hooks
	} else {
		c.Hooks = nil
	}
}

// execHooked is ExecDecoded with observers attached. The order is the
// contract both observers rely on:
//
//  1. the fault decision comes first and sees pre-instruction state;
//  2. a faulted instruction emits no sample — the trace records work
//     the core actually committed;
//  3. a committed instruction emits exactly one sample.
//
// The injector may detach itself inside OnInstr (a one-shot glitcher
// closing its pulse), which can clear c.Hooks; h still points at the
// live hooks, so the sink is read as it stands after the decision.
func (c *CPU) execHooked(in Instr, word uint32) error {
	h := c.Hooks
	if h.Fault != nil {
		if d := h.Fault.OnInstr(c, in); d.Kind != FaultNone { //voltvet:ignore VV-HOT006 per-instruction fault hook; a direct glitch dependency would cycle the import graph
			return c.execFaulted(in, word, d)
		}
	}
	err := c.exec(in, word)
	if err == nil && h.Sink != nil {
		h.Sink.Retire()
	}
	return err
}
