package isa

// Fault injection: the ISA-level half of the voltage-glitch engine
// (internal/glitch). A FaultInjector attached to a CPU sees every
// instruction at the top of ExecDecoded — before any architectural
// effect — and may replace its execution with one of three fault modes,
// the instruction-level outcomes the glitching literature attributes to
// rail-induced timing violations:
//
//   - FaultSkip: the instruction retires with no effect at all (its
//     result latch misses the shortened cycle);
//   - FaultCorrupt: the instruction executes, then one bit of its
//     destination register flips (a marginal result latch);
//   - FaultWrongBranch: a branch resolves to the opposite decision (the
//     condition evaluation misses timing).
//
// The injector rides CPU.Hooks (see hooks.go), so a CPU with nothing
// attached pays one predictable branch on the hot path and nothing
// else — the disarmed glitcher is free.

// FaultKind classifies one injected fault.
type FaultKind uint8

const (
	// FaultNone means the instruction executes normally.
	FaultNone FaultKind = iota
	// FaultSkip retires the instruction with no architectural effect.
	FaultSkip
	// FaultCorrupt executes the instruction, then flips one bit of its
	// destination register (no effect on ops without a GPR destination).
	FaultCorrupt
	// FaultWrongBranch inverts a branch decision: a conditional branch
	// resolves against its condition, an unconditional redirect falls
	// through. Non-branches execute normally.
	FaultWrongBranch
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultSkip:
		return "skip"
	case FaultCorrupt:
		return "corrupt"
	case FaultWrongBranch:
		return "wrong-branch"
	default:
		return "unknown"
	}
}

// FaultDecision is an injector's verdict for one instruction.
type FaultDecision struct {
	Kind FaultKind
	// Bit is the destination-register bit to flip for FaultCorrupt
	// (taken mod 64).
	Bit uint8
}

// FaultInjector decides, per instruction, whether execution faults.
// Implementations must be deterministic functions of their own captured
// state: CaptureState/RestoreState compose the injector into CPUState
// (and so into soc.Snapshot), letting glitched trials fork from
// copy-on-write snapshots like everything else.
type FaultInjector interface {
	// OnInstr is called before in executes, with the CPU's architectural
	// state still pre-instruction (PC at in, Instret counting retired
	// predecessors). It may mutate external state (e.g. drive a power
	// domain) but not the CPU.
	OnInstr(c *CPU, in Instr) FaultDecision
	// CaptureState returns an opaque rewindable copy of the injector's
	// internal state.
	CaptureState() any
	// RestoreState rewinds to a state from CaptureState. A nil argument
	// resets the injector to its disarmed baseline.
	RestoreState(st any)
}

// HasGPRDest reports whether op writes a general-purpose destination
// register (Rd) — the ops FaultCorrupt can visibly disturb.
func HasGPRDest(op Op) bool {
	switch op {
	case OpMOVZ, OpMOVK, OpMOVN,
		OpADD, OpSUB, OpAND, OpORR, OpEOR, OpLSLV, OpLSRV, OpMUL,
		OpSUBS, OpADDS, OpADDI, OpSUBI, OpSUBSI,
		OpLDR, OpLDRW, OpLDRB, OpMRS, OpUMOV:
		return true
	}
	return false
}

// IsBranch reports whether op can redirect the PC — the ops
// FaultWrongBranch can invert.
func IsBranch(op Op) bool {
	switch op {
	case OpB, OpBL, OpBCond, OpCBZ, OpCBNZ, OpRET:
		return true
	}
	return false
}

// execFaulted retires one instruction under an injected fault. Every
// path retires exactly one instruction (PC advances, Instret++), so a
// faulted stream stays architecturally well-formed — the corruption is
// in the results, not the pipeline model.
func (c *CPU) execFaulted(in Instr, word uint32, d FaultDecision) error {
	switch d.Kind {
	case FaultSkip:
		c.PC += 4
		c.Instret++
		return nil
	case FaultCorrupt:
		if err := c.exec(in, word); err != nil {
			return err
		}
		if HasGPRDest(in.Op) {
			c.SetX(in.Rd, c.X(in.Rd)^(uint64(1)<<(d.Bit&63)))
		}
		return nil
	case FaultWrongBranch:
		next := c.PC + 4
		switch in.Op {
		case OpBCond:
			if !c.condHolds(in.Cond) {
				next = c.PC + uint64(in.Imm*4)
			}
		case OpCBZ:
			if c.X(in.Rd) != 0 {
				next = c.PC + uint64(in.Imm*4)
			}
		case OpCBNZ:
			if c.X(in.Rd) == 0 {
				next = c.PC + uint64(in.Imm*4)
			}
		case OpBL:
			// The fault hits the redirect, not the datapath: the link
			// register still latches before the branch falls through.
			c.SetX(30, c.PC+4)
		case OpB, OpRET:
			// Unconditional redirect suppressed: fall through.
		default:
			return c.exec(in, word)
		}
		c.PC = next
		c.Instret++
		return nil
	}
	return c.exec(in, word)
}
