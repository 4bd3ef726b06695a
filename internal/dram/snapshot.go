package dram

// Copy-on-write snapshots for DRAM, the companion of sram's ArraySnapshot
// (see internal/sram/snapshot.go for the sweep-loop rationale). Capture
// copies the byte array once and arms a dirty-page bitmap; restore copies
// back only pages a write or a deferred-decay materialization touched
// since, then rewinds the power/outage scalars.
//
// The retention table is neither captured nor rewound: every chunk is a
// pure function of the module seed (see Module.logRetention), so a chunk
// drawn after the capture holds exactly the values a fresh board would
// draw, and a restored trial reuses it instead of drawing it again.

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// snapPageBytes is the dirty-tracking granularity: coarse because trial
// writes (payload load, dump regions) are contiguous multi-KB runs.
const snapPageBytes = 4096

// ModuleSnapshot is the captured state of one Module, bound to the
// module it came from.
type ModuleSnapshot struct {
	mod  *Module
	data []byte

	powered  bool
	offSince sim.Time
	offTempK float64

	resolved   []uint64 // nil when no outage was pending at capture
	unresolved int
	outage     pendingOutage
}

// markSnapRange records that bytes [off, off+n) may have changed.
func (m *Module) markSnapRange(off, n int) {
	if m.snapDirty == nil || n <= 0 {
		return
	}
	for p := off / snapPageBytes; p <= (off+n-1)/snapPageBytes; p++ {
		m.snapDirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// armSnapDirty (re)arms the dirty-page bitmap with all pages clean.
func (m *Module) armSnapDirty() {
	npages := (len(m.data) + snapPageBytes - 1) / snapPageBytes
	if m.snapDirty == nil {
		m.snapDirty = make([]uint64, (npages+63)/64)
		return
	}
	for i := range m.snapDirty {
		m.snapDirty[i] = 0
	}
}

// CaptureSnapshot records the module's complete observable state and
// arms dirty-page tracking for O(dirty) restores.
func (m *Module) CaptureSnapshot() *ModuleSnapshot {
	s := &ModuleSnapshot{
		mod:        m,
		data:       make([]byte, len(m.data)),
		powered:    m.powered,
		offSince:   m.offSince,
		offTempK:   m.offTempK,
		unresolved: m.unresolved,
		outage:     m.outage,
	}
	copy(s.data, m.data)
	if m.resolved != nil {
		s.resolved = append([]uint64(nil), m.resolved...)
	}
	m.armSnapDirty()
	m.snapOwner = s
	return s
}

// RestoreSnapshot rewinds the module to the captured state: dirty data
// pages only when s owns the armed bitmap, a full copy otherwise.
func (m *Module) RestoreSnapshot(s *ModuleSnapshot) {
	if s.mod != m {
		panic(fmt.Sprintf("dram: RestoreSnapshot of %s onto %s", s.mod.name, m.name))
	}
	if m.snapDirty != nil && m.snapOwner == s {
		n := len(m.data)
		for i, word := range m.snapDirty {
			for ; word != 0; word &= word - 1 {
				p := i<<6 + bits.TrailingZeros64(word)
				b0 := p * snapPageBytes
				b1 := b0 + snapPageBytes
				if b1 > n {
					b1 = n
				}
				copy(m.data[b0:b1], s.data[b0:b1])
			}
			m.snapDirty[i] = 0
		}
	} else {
		copy(m.data, s.data)
		m.armSnapDirty()
		m.snapOwner = s
	}
	m.powered = s.powered
	m.offSince = s.offSince
	m.offTempK = s.offTempK
	m.unresolved = s.unresolved
	m.outage = s.outage
	if s.resolved == nil {
		m.resolved = nil
	} else {
		if m.resolved == nil {
			m.resolved = make([]uint64, len(s.resolved))
		}
		copy(m.resolved, s.resolved)
	}
}
