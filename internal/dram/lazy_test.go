package dram

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Differential oracles for the write-once retention table: chunks drawn
// on demand, in any order, with the chunks below a read skipped rather
// than drawn, must reproduce one eager in-order fill of the whole module
// value for value, and a module that draws on demand must decay exactly
// like one that drew its whole table first.

// lazyTestSize spans six full chunks plus a short final one.
const lazyTestSize = 6*retChunk + 12345

func TestRetentionChunksMatchEagerFill(t *testing.T) {
	for _, seed := range []uint64{1, 0x5EED} {
		model := DefaultRetentionModel()
		m := NewModule(sim.NewQuietEnv(), "lazy", lazyTestSize, model, seed)
		for _, c := range xrand.New(seed).Perm(len(m.logRetention)) {
			m.ensureRetention(c<<retChunkShift, 1)
		}
		if m.retDrawn != len(m.logRetention) {
			t.Fatalf("drew %d of %d chunks", m.retDrawn, len(m.logRetention))
		}
		want := make([]float32, lazyTestSize)
		xrand.Derive(seed, "dram:lazy").FillNormFloat32(want, model.RetentionSigma)
		for i, w := range want {
			if got := m.logRetention[i>>retChunkShift][i&(retChunk-1)]; got != w {
				t.Fatalf("seed %#x: logRetention[%d] = %v, want %v", seed, i, got, w)
			}
		}
	}
}

// TestLazyModuleMatchesEager drives two same-seed modules — one drawing
// retention chunks as reads reach them, one that drew the whole table at
// construction — through outages from zero length to total loss, reads
// at random offsets, writes, snapshot restores and a back-to-back outage,
// and compares every read byte for byte.
func TestLazyModuleMatchesEager(t *testing.T) {
	outages := []struct {
		tempC float64
		off   sim.Time
	}{
		{25, 0},
		{25, sim.Millisecond},       // below every byte's retention
		{25, 500 * sim.Millisecond}, // a few percent decay
		{25, 3 * sim.Second},        // about half
		{-30, 25 * sim.Second},
		{25, 3600 * sim.Second}, // total loss
	}
	for _, seed := range []uint64{3, 0x5EED} {
		envL, envE := sim.NewQuietEnv(), sim.NewQuietEnv()
		lazy := NewModule(envL, "dimm", lazyTestSize, DefaultRetentionModel(), seed)
		eager := NewModule(envE, "dimm", lazyTestSize, DefaultRetentionModel(), seed)
		eager.ensureRetention(0, lazyTestSize)

		fill := make([]byte, lazyTestSize)
		xrand.New(seed).Bytes(fill)
		lazy.Write(0, fill)
		eager.Write(0, fill)
		snapL, snapE := lazy.CaptureSnapshot(), eager.CaptureSnapshot()
		t0 := envL.Now()

		rng := xrand.New(seed ^ 0xA11CE)
		compare := func(stage string, off, n int) {
			t.Helper()
			if got, want := lazy.Read(off, n), eager.Read(off, n); !bytes.Equal(got, want) {
				t.Fatalf("seed %#x, %s: Read(%d, %d) differs from the eager-table module", seed, stage, off, n)
			}
		}
		outage := func(tempC float64, off sim.Time) {
			for _, p := range []struct {
				m *Module
				e *sim.Env
			}{{lazy, envL}, {eager, envE}} {
				p.e.SetTemperatureC(tempC)
				p.m.PowerOff()
				p.e.Advance(off)
				p.m.PowerOn()
			}
		}
		for _, o := range outages {
			outage(o.tempC, o.off)
			stage := "outage " + o.off.String()
			for k := 0; k < 48; k++ {
				off := rng.Intn(lazyTestSize)
				n := min(1+rng.Intn(3000), lazyTestSize-off)
				if k%5 == 4 {
					// Interleaved writes retire bytes before anything reads them.
					b := make([]byte, n)
					rng.Bytes(b)
					lazy.Write(off, b)
					eager.Write(off, b)
					continue
				}
				compare(stage, off, n)
			}
			compare(stage+" full read", 0, lazyTestSize)
			lazy.RestoreSnapshot(snapL)
			eager.RestoreSnapshot(snapE)
			envL.Rewind(t0, 25)
			envE.Rewind(t0, 25)
			compare(stage+" after restore", 0, lazyTestSize)
		}
		// Back to back: the second outage begins while the first one's
		// resolution is still deferred, so PowerOff draws it all.
		outage(25, 3*sim.Second)
		compare("first of two outages", lazyTestSize-100, 100)
		outage(25, 2*sim.Second)
		compare("second of two outages", 0, lazyTestSize)
	}
}

// TestPartialTableCertifiesNothing: the module-wide "no byte decays"
// certificate must wait for the whole table. A drawn chunk's minimum
// says nothing about chunks not drawn yet, so an outage that spares
// every byte of the first chunk read but not the leakiest byte elsewhere
// must still decay that byte.
func TestPartialTableCertifiesNothing(t *testing.T) {
	const seed = 0x5EED
	model := DefaultRetentionModel()
	envL, envE := sim.NewQuietEnv(), sim.NewQuietEnv()
	lazy := NewModule(envL, "dimm", lazyTestSize, model, seed)
	eager := NewModule(envE, "dimm", lazyTestSize, model, seed)
	eager.ensureRetention(0, lazyTestSize)

	// The chunk whose minimum sits furthest above the module minimum.
	best, bestMin := -1, float32(math.Inf(-1))
	for c, chunk := range eager.logRetention {
		lo := float32(math.Inf(1))
		for _, lr := range chunk {
			lo = min(lo, lr)
		}
		if lo > bestMin {
			best, bestMin = c, lo
		}
	}
	if bestMin <= eager.minLogRet {
		t.Fatal("every chunk holds the module minimum; test is vacuous")
	}
	logEl := (float64(eager.minLogRet) + float64(bestMin)) / 2
	median := float64(model.MedianRetentionAt(sim.CelsiusToKelvin(25)))
	off := sim.Time(median * math.Exp(logEl))

	fill := bytes.Repeat([]byte{0x5A}, lazyTestSize)
	lazy.Write(0, fill)
	eager.Write(0, fill)
	// Draw that chunk alone up front, so both certificate sites — PowerOn
	// and resolution — see a partial table whose minimum survives.
	lazy.ensureRetention(best<<retChunkShift, 1)
	for _, p := range []struct {
		m *Module
		e *sim.Env
	}{{lazy, envL}, {eager, envE}} {
		p.m.PowerOff()
		p.e.Advance(off)
		p.m.PowerOn()
	}
	_ = lazy.Read(best<<retChunkShift, 64)
	got, want := lazy.Read(0, lazyTestSize), eager.Read(0, lazyTestSize)
	if bytes.Equal(want, fill) {
		t.Fatal("the outage decayed nothing; test is vacuous")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a partial retention table certified a module-wide no-decay outage")
	}
}
