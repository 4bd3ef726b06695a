package puf

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// DRV fingerprinting (the paper's reference [20], Holcomb et al.):
// instead of the power-up state, identify a chip by *which cells lose
// data at which standby voltage*. Each cell's data retention voltage is
// an independent sample of process variation, so the vector of
// per-cell "lost at step k" indices is a second, independent fingerprint
// — and one an attacker with Volt Boot-grade rail control can read out
// with the same bench supply used for the attack.

// DRVFingerprint is a per-cell map of the voltage step at which the cell
// lost its data.
type DRVFingerprint struct {
	// Steps are the held voltages tested, descending.
	Steps []float64
	// LossStep[i] is the index into Steps at which cell i first lost its
	// data, or len(Steps) if it survived every step.
	LossStep []uint8
}

// MeasureDRV profiles the array behind h: for each voltage (descending),
// it writes a known pattern, sags the rail to the voltage for the hold
// time, restores, and records which cells flipped. Cells flip at the
// first step below their personal DRV (given a hold long past their
// intrinsic retention).
func MeasureDRV(h *Harness, steps []float64, hold sim.Time) (*DRVFingerprint, error) {
	if len(steps) == 0 || len(steps) > 250 {
		return nil, fmt.Errorf("puf: need 1..250 voltage steps, got %d", len(steps))
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] >= steps[i-1] {
			return nil, fmt.Errorf("puf: steps must be strictly descending")
		}
	}
	n := h.arr.Bits()
	fp := &DRVFingerprint{
		Steps:    append([]float64(nil), steps...),
		LossStep: make([]uint8, n),
	}
	for i := range fp.LossStep {
		fp.LossStep[i] = uint8(len(steps))
	}
	// SRAM bistability hides half the losses behind any single pattern:
	// a decayed cell whose power-up fingerprint happens to match the
	// stored bit looks retained. Writing complementary patterns with a
	// repeat (4 sub-runs per step) catches a decayed cell unless its
	// fingerprint samples match all four writes — <7% even for the
	// metastable minority.
	patterns := []byte{0xA5, 0x5A, 0xA5, 0x5A}
	for si, v := range steps {
		for _, pattern := range patterns {
			h.arr.Fill(pattern)
			before := h.arr.Snapshot()
			h.arr.SetRail(v)
			h.env.Advance(hold)
			h.arr.SetRail(h.volts)
			after := h.arr.Snapshot()
			for byteIdx := range after {
				diff := before[byteIdx] ^ after[byteIdx]
				for bit := 0; diff != 0; bit++ {
					if diff&1 == 1 {
						cell := byteIdx*8 + bit
						if fp.LossStep[cell] == uint8(len(steps)) {
							fp.LossStep[cell] = uint8(si)
						}
					}
					diff >>= 1
				}
			}
		}
	}
	return fp, nil
}

// Distance returns the mean absolute step difference between two
// fingerprints of equal geometry — small for the same silicon (noise
// only), large across chips.
func (fp *DRVFingerprint) Distance(other *DRVFingerprint) (float64, error) {
	if len(fp.LossStep) != len(other.LossStep) || len(fp.Steps) != len(other.Steps) {
		return 0, fmt.Errorf("puf: fingerprint geometry mismatch")
	}
	sum := 0.0
	for i := range fp.LossStep {
		sum += math.Abs(float64(fp.LossStep[i]) - float64(other.LossStep[i]))
	}
	return sum / float64(len(fp.LossStep)), nil
}
