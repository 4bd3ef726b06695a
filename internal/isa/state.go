package isa

// CPUState is the architectural flop state of one core: everything a
// snapshot must rewind that does not live in the SRAM-backed register
// file (registers ride along with the Regs array's own snapshot).
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
}

// CaptureState returns the core's current flop state.
func (c *CPU) CaptureState() CPUState {
	return CPUState{
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
}

// RestoreState rewinds the core's flop state to st. Attached hooks are
// left as they are.
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
}
