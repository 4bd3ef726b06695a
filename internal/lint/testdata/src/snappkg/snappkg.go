// Package snappkg seeds snapshot-completeness violations: a device type
// with a Capture/Restore pair that misses a mutable field entirely
// (VV-SNAP001), captures one without restoring it (VV-SNAP002), restores
// one it never captured (VV-SNAP003), and carries a stale waiver
// (VV-SNAP004) — plus the shapes that must stay clean: a covered field,
// a generation counter, a constructor-only field, a waived scratch
// field, and coverage through a helper the pair calls. The clear builtin
// counts as a write like copy does: a restore that zeroes a captured
// field with it covers the field, and a clear outside the pair makes a
// field mutable.
package snappkg

// DevSnapshot is the captured state of a Dev.
type DevSnapshot struct {
	covered int
	deep    int
	capOnly int
}

// Dev is a device with deliberately broken snapshot coverage.
type Dev struct {
	covered int
	// deep is covered through the capture/restore helpers, proving the
	// contract is judged on the pair's call closure, not its bodies.
	deep     int
	missed   int // want "VV-SNAP001"
	capOnly  int // want "VV-SNAP002"
	restOnly int // want "VV-SNAP003"
	// gen is a generation counter: bumped by the restore, never captured.
	gen uint64
	// ctorOnly is written only by NewDev; constructor stores initialize a
	// value no snapshot can predate, so the field is not mutable state.
	ctorOnly int
	//voltvet:nosnap scratch buffer rebuilt before every use
	scratch int
	//voltvet:nosnap pinned at construction time
	stale int // want "VV-SNAP004"
	// The verb typo below parses as a directive but waives nothing, so
	// the field stays under the contract and the typo itself is flagged.
	//voltvet:nosnup rebuilt per use // want "VV-IGN001"
	typoed int // want "VV-SNAP001"
	// touched logs the slots Tick wrote; both halves of the pair zero it
	// with clear, which is its restore write.
	touched []bool
	// wiped is mutated only by a clear in Wipe, outside the pair.
	wiped []int // want "VV-SNAP001"
}

// NewDev builds a Dev; these writes are constructor initialization.
func NewDev(seed int) *Dev {
	d := &Dev{touched: make([]bool, 4), wiped: make([]int, 4)}
	d.ctorOnly = seed
	d.stale = seed
	return d
}

// Tick is the trial-side mutation making the fields above mutable.
func (d *Dev) Tick() {
	d.covered++
	d.deep++
	d.missed++
	d.capOnly++
	d.restOnly++
	d.gen++
	d.scratch++
	d.typoed++
	d.touched[slot(d.covered)] = true
}

// Wipe zeroes wiped: a mutation no snapshot pair covers.
func (d *Dev) Wipe() { clear(d.wiped) }

func slot(n int) int { return n & 3 }

func (d *Dev) captureDeep(s *DevSnapshot) { s.deep = d.deep }

func (d *Dev) restoreDeep(s *DevSnapshot) { d.deep = s.deep }

// CaptureSnapshot records covered, deep, and capOnly — but not missed.
func (d *Dev) CaptureSnapshot() DevSnapshot {
	s := DevSnapshot{covered: d.covered, capOnly: d.capOnly}
	d.captureDeep(&s)
	clear(d.touched)
	return s
}

// RestoreSnapshot writes covered, deep, and restOnly, bumps gen, and
// forgets capOnly.
func (d *Dev) RestoreSnapshot(s DevSnapshot) {
	d.covered = s.covered
	d.restoreDeep(&s)
	d.restOnly = 0
	clear(d.touched)
	d.gen++
}
