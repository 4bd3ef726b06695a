package dram

// Copy-on-write snapshots for DRAM, the companion of sram's ArraySnapshot
// (see internal/sram/snapshot.go for the sweep-loop rationale). Capture
// copies the page table, not the pages: every present page becomes
// shared between the module and the snapshot, and the module's first
// write to a shared page copies it (Module.writable). Restore puts back
// the table entries of the pages the module owns — exactly those written,
// or decayed by a deferred-decay materialization, since the capture or
// the last restore — then rewinds the power/outage scalars. Restoring a
// snapshot the module is not tracking copies the whole table instead,
// which is still one pointer per page.
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

// ModuleSnapshot is the captured state of one Module, bound to the
// module it came from. Its pages are shared with the module and never
// written.
type ModuleSnapshot struct {
	mod   *Module
	pages []*page

	powered  bool
	offSince sim.Time
	offTempK float64

	resolved   []uint64 // nil when no outage was pending at capture
	unresolved int
	outage     pendingOutage
}

// CaptureSnapshot records the module's complete observable state. Every
// page becomes shared with the snapshot until the module next writes it.
func (m *Module) CaptureSnapshot() *ModuleSnapshot {
	s := &ModuleSnapshot{
		mod:        m,
		pages:      append([]*page(nil), m.pages...),
		powered:    m.powered,
		offSince:   m.offSince,
		offTempK:   m.offTempK,
		unresolved: m.unresolved,
		outage:     m.outage,
	}
	if m.resolved != nil {
		s.resolved = append([]uint64(nil), m.resolved...)
	}
	clear(m.owned)
	m.snapOwner = s
	return s
}

// RestoreSnapshot rewinds the module to the captured state: the owned
// pages only when the module tracks s, the whole page table otherwise.
// Either way the owned pages go to the spare list, since nothing else
// references them.
func (m *Module) RestoreSnapshot(s *ModuleSnapshot) {
	if s.mod != m {
		panic(fmt.Sprintf("dram: RestoreSnapshot of %s onto %s", s.mod.name, m.name))
	}
	for i, word := range m.owned {
		for ; word != 0; word &= word - 1 {
			p := i<<6 + bits.TrailingZeros64(word)
			m.spare = append(m.spare, m.pages[p])
			m.pages[p] = s.pages[p]
		}
		m.owned[i] = 0
	}
	if m.snapOwner != s {
		copy(m.pages, s.pages)
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
