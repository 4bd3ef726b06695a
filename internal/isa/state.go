package isa

// CPUState is the architectural flop state of one core — everything a
// snapshot must rewind that does not live in the SRAM-backed register
// file (registers ride along with the Regs array's own snapshot) — plus
// the hooks attached at capture time.
type CPUState struct {
	EL        int
	PC        uint64
	Flags     Flags
	Halted    bool
	HaltCode  int64
	Instret   uint64
	RAMData   uint64
	RAMStatus uint64
	SCRNS     uint64
	NSLocked  bool
	// Fault carries the attached fault injector and its captured state
	// (nil when no injector was attached at capture time), so glitched
	// trials fork from snapshots like everything else: a restore rebinds
	// the injector and rewinds its internals — trigger arming, pulse
	// position, and RNG stream included.
	Fault *faultSnap
	// Probe does the same for an attached trace probe: a restore
	// rebinds the capturer and rewinds its arena cursor and recorded
	// samples, so traced trials fork from snapshots too.
	Probe *probeSnap
}

// faultSnap pairs the injector reference with its opaque captured state.
type faultSnap struct {
	inj FaultInjector
	st  any
}

// probeSnap pairs the trace probe reference with its captured state.
type probeSnap struct {
	probe TraceProbe
	st    any
}

// CaptureState returns the core's current flop state.
func (c *CPU) CaptureState() CPUState {
	st := CPUState{
		EL:        c.EL,
		PC:        c.PC,
		Flags:     c.Flags,
		Halted:    c.Halted,
		HaltCode:  c.HaltCode,
		Instret:   c.Instret,
		RAMData:   c.ramData,
		RAMStatus: c.ramStatus,
		SCRNS:     c.scrNS,
		NSLocked:  c.NSLocked,
	}
	if f := c.hooks.Fault; f != nil {
		st.Fault = &faultSnap{inj: f, st: f.CaptureState()}
	}
	if p := c.hooks.Probe; p != nil {
		st.Probe = &probeSnap{probe: p, st: p.CaptureState()}
	}
	return st
}

// RestoreState rewinds the core's flop state to st and re-attaches the
// hooks attached at capture time. A hook attached now but absent from
// st is reset to its disarmed baseline (RestoreState(nil)) before it is
// detached, so no observer is left believing it is armed.
func (c *CPU) RestoreState(st CPUState) {
	c.EL = st.EL
	c.PC = st.PC
	c.Flags = st.Flags
	c.Halted = st.Halted
	c.HaltCode = st.HaltCode
	c.Instret = st.Instret
	c.ramData = st.RAMData
	c.ramStatus = st.RAMStatus
	c.scrNS = st.SCRNS
	c.NSLocked = st.NSLocked
	if st.Fault != nil {
		c.hooks.Fault = st.Fault.inj
		c.hooks.Fault.RestoreState(st.Fault.st)
	} else if c.hooks.Fault != nil {
		c.hooks.Fault.RestoreState(nil)
		c.hooks.Fault = nil
	}
	if st.Probe != nil {
		c.hooks.Probe = st.Probe.probe
		c.hooks.Sink = c.hooks.Probe.RestoreState(st.Probe.st)
	} else if c.hooks.Probe != nil {
		c.hooks.Probe.RestoreState(nil)
		c.hooks.Probe = nil
		c.hooks.Sink = nil
	}
	c.rehook()
}
