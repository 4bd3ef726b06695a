package isa

import "math/bits"

// TraceSink is the sample buffer an armed power-trace capturer shares
// with the hardware it taps: the core's retire and GPR writeback paths
// and the SoC interconnect all write switching activity straight into
// the sink's fields. It is a concrete struct — not an interface —
// deliberately: the armed emit path runs once per retired instruction,
// and direct, inlinable field arithmetic is what keeps the armed step
// overhead inside its budget. The capturer in internal/trace owns the
// sink and attaches it with CPU.AttachTrace on Arm; every tap reaches
// it through CPU.Hooks, so a core with nothing attached costs each tap
// one nil check.
//
// All activity terms are integer popcounts accumulated exactly; the
// single float32 rounding happens in Retire, in one fixed order, which
// is what makes trace bytes reproducible across architectures and
// GOMAXPROCS settings.
type TraceSink struct {
	// BusAct accumulates the cycle's switching activity (GPR writeback
	// toggles via RegWrite, interconnect traffic via BusAccess) since
	// the last retired instruction; the next Retire drains it into that
	// instruction's sample.
	BusAct int
	// LastAddr is the previous bus access address — the reference for
	// address-bus toggle counting.
	LastAddr uint64
	// Static is the static-draw term added to every sample, computed by
	// the capturer from the rail voltages at Arm time.
	Static float32
	// Buf is the preallocated sample arena; N is the cursor. Emission
	// past the arena end drops samples rather than growing: capture
	// windows are sized by the caller, and a bounded arena is what
	// keeps the armed hot path allocation-free.
	N   int
	Buf []float32
}

// RegWrite counts the flop toggles of a GPR writeback — the Hamming
// distance between the dying and the incoming value.
func (s *TraceSink) RegWrite(old, next uint64) {
	s.BusAct += bits.OnesCount64(old ^ next)
}

// BusAccess counts interconnect activity: address-bus toggles against
// the previous access, the Hamming weight of write data driven onto
// the bus, and a per-byte transfer cost.
func (s *TraceSink) BusAccess(addr uint64, size int, write bool, wdata uint64) {
	act := bits.OnesCount64(addr ^ s.LastAddr)
	s.LastAddr = addr
	if write {
		act += bits.OnesCount64(wdata)
	}
	s.BusAct += act + size
}

// Retire drains the accumulated activity into one sample — the sample
// boundary is instruction retirement, one sample per core-clock cycle.
func (s *TraceSink) Retire() {
	act := s.BusAct
	s.BusAct = 0
	v := float32(act) + s.Static
	if s.N < len(s.Buf) {
		s.Buf[s.N] = v
		s.N++
	}
}
