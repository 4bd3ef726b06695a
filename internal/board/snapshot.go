package board

import (
	"repro/internal/power"
	"repro/internal/soc"
)

// Snapshot is the captured state of a whole evaluation platform: the SoC
// (memories, cores, caches, power domains, clock — see soc.Snapshot)
// and the PMIC's input, which is the main-supply plug state.
// Capture once after the shared prefix of a sweep (boot, victim fill),
// then restore before each trial: the board is bit-identical to the
// capture instant, so trial tails replay exactly as on a fresh board
// that ran the same prefix.
type Snapshot struct {
	b    *Board
	soc  *soc.Snapshot
	pmic power.PMICSnapshot
}

// CaptureSnapshot records the full board state and arms copy-on-write
// tracking on every memory, making the following trial's Restore cost
// proportional to the pages the trial dirtied rather than total memory.
func (b *Board) CaptureSnapshot() *Snapshot {
	return &Snapshot{
		b:    b,
		soc:  b.SoC.CaptureSnapshot(),
		pmic: b.PMIC.CaptureSnapshot(),
	}
}

// RestoreSnapshot rewinds the board to the captured state in O(dirty
// pages).
func (b *Board) RestoreSnapshot(s *Snapshot) {
	if s.b != b {
		panic("board: RestoreSnapshot onto a different board")
	}
	b.SoC.RestoreSnapshot(s.soc)
	b.PMIC.RestoreSnapshot(s.pmic)
}
