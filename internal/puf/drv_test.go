package puf

import (
	"testing"

	"repro/internal/sim"
)

// drvSteps spans the DRV distribution (mean 0.30V, σ 0.04V).
func drvSteps() []float64 {
	return []float64{0.42, 0.38, 0.34, 0.30, 0.26, 0.22, 0.18}
}

func measure(t *testing.T, seed uint64) *DRVFingerprint {
	t.Helper()
	h := newHarness(t, seed, 1<<13)
	fp, err := MeasureDRV(h, drvSteps(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestMeasureDRVValidation(t *testing.T) {
	h := newHarness(t, 1, 1024)
	if _, err := MeasureDRV(h, nil, sim.Millisecond); err == nil {
		t.Fatal("empty steps accepted")
	}
	if _, err := MeasureDRV(h, []float64{0.3, 0.3}, sim.Millisecond); err == nil {
		t.Fatal("non-descending steps accepted")
	}
}

func TestDRVDistributionShape(t *testing.T) {
	fp := measure(t, 2)
	// Count cells lost per step: should be unimodal-ish around the mean
	// DRV (0.30V = step index 3).
	counts := make([]int, len(fp.Steps)+1)
	for _, s := range fp.LossStep {
		counts[s]++
	}
	total := len(fp.LossStep)
	// Almost no cell should survive the 0.18V step (DRV 4σ below mean
	// would be required)...
	if counts[len(fp.Steps)] > total/50 {
		t.Fatalf("%d/%d cells survived the lowest step", counts[len(fp.Steps)], total)
	}
	// ...and the middle steps should carry the bulk of the losses.
	mid := counts[2] + counts[3] + counts[4]
	if float64(mid)/float64(total) < 0.5 {
		t.Fatalf("middle steps hold only %d/%d cells", mid, total)
	}
}

func TestDRVSameChipMatches(t *testing.T) {
	a := measure(t, 3)
	b := measure(t, 3) // same silicon, fresh measurement run
	same, err := a.SameChip(b)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		d, _ := a.Distance(b)
		t.Fatalf("same chip rejected (distance %v)", d)
	}
}

func TestDRVDifferentChipsDiffer(t *testing.T) {
	a := measure(t, 4)
	b := measure(t, 5)
	same, err := a.SameChip(b)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		d, _ := a.Distance(b)
		t.Fatalf("different chips matched (distance %v)", d)
	}
	d, _ := a.Distance(b)
	if d < 1.0 {
		t.Fatalf("inter-chip distance %v, want ≥1 step", d)
	}
}

func TestDRVDistanceGeometryMismatch(t *testing.T) {
	a := measure(t, 6)
	h := newHarness(t, 6, 512)
	small, err := MeasureDRV(h, drvSteps(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Distance(small); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// MatchThreshold is the mean-step-distance below which two DRV
// fingerprints are considered the same chip. Same-chip remeasurements
// are near 0 (the DRV is deterministic per cell in the model; physical
// noise would add fractions of a step); different chips differ by ≥1
// step on most cells.
const MatchThreshold = 0.5

// SameChip reports whether the fingerprints match.
func (fp *DRVFingerprint) SameChip(other *DRVFingerprint) (bool, error) {
	d, err := fp.Distance(other)
	if err != nil {
		return false, err
	}
	return d < MatchThreshold, nil
}
