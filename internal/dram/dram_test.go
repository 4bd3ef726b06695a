package dram

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestReadAfterWrite(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "ddr", 1<<16, 1)
	data := []byte{1, 2, 3, 4, 5}
	m.Write(1000, data)
	if !bytes.Equal(m.Read(1000, 5), data) {
		t.Fatal("read-after-write mismatch")
	}
}

func TestGroundStatePattern(t *testing.T) {
	env := sim.NewEnv()
	const g = GroundBlockBytes
	m := NewModule(env, "ddr", 4*g, 2)
	if m.Read(0, 1)[0] != 0x00 || m.Read(g, 1)[0] != 0xFF ||
		m.Read(2*g, 1)[0] != 0x00 || m.Read(3*g, 1)[0] != 0xFF {
		t.Fatal("ground blocks must alternate 0x00/0xFF")
	}
	if m.groundByte(0) != 0x00 || m.groundByte(g) != 0xFF {
		t.Fatal("groundByte wrong")
	}
}

// TestFillGroundMatchesGroundByte: the block-wise ground fill writes
// exactly groundByte at every offset, for spans inside one block, spans
// crossing a 64 KiB block boundary in either direction, and spans longer
// than a page or a block, including dirty destinations it must overwrite.
func TestFillGroundMatchesGroundByte(t *testing.T) {
	const g = GroundBlockBytes
	m := NewModule(sim.NewEnv(), "ddr", 4*g, 6)
	for _, span := range []struct{ off, n int }{
		{0, 1}, {17, pageBytes}, {g - 5, 10}, {2*g - 3000, 7000},
		{g - pageBytes - 1, 3*pageBytes + 2}, {3, 2*g + 11}, {0, 4 * g},
	} {
		dst := bytes.Repeat([]byte{0x5A}, span.n)
		m.fillGround(dst, span.off)
		for i, b := range dst {
			if want := m.groundByte(span.off + i); b != want {
				t.Fatalf("fillGround(off=%d, n=%d): byte %d = %#x, want %#x", span.off, span.n, span.off+i, b, want)
			}
		}
	}
}

func decayFraction(t *testing.T, tempC float64, off sim.Time) float64 {
	t.Helper()
	env := sim.NewEnv()
	env.SetTemperatureC(tempC)
	m := NewModule(env, "ddr", GroundBlockBytes, 3) // one all-zero ground block
	pattern := make([]byte, m.Size())
	for i := range pattern {
		pattern[i] = 0xA5
	}
	m.Write(0, pattern)
	m.PowerOff()
	env.Advance(off)
	m.PowerOn()
	got := m.Read(0, m.Size())
	lost := 0
	for i := range got {
		if got[i] != 0xA5 {
			lost++
		}
	}
	return float64(lost) / float64(len(got))
}

func TestRoomTempDecaysWithinMinute(t *testing.T) {
	frac := decayFraction(t, 25, 60*sim.Second)
	if frac < 0.90 {
		t.Fatalf("60s at room temperature decayed only %.2f", frac)
	}
}

func TestRoomTempBriefOutageRetains(t *testing.T) {
	frac := decayFraction(t, 25, 100*sim.Millisecond)
	if frac > 0.05 {
		t.Fatalf("100ms outage decayed %.3f, expected near-total retention", frac)
	}
}

func TestColdRetainsMinutes(t *testing.T) {
	frac := decayFraction(t, -50, 60*sim.Second)
	if frac > 0.05 {
		t.Fatalf("-50°C 60s decayed %.3f, cold boot would be impossible", frac)
	}
}

func TestDecayMonotoneInTime(t *testing.T) {
	prev := -1.0
	for _, off := range []sim.Time{sim.Second, 5 * sim.Second, 30 * sim.Second, 120 * sim.Second} {
		frac := decayFraction(t, 25, off)
		if frac < prev {
			t.Fatalf("decay fraction not monotone: %v then %v", prev, frac)
		}
		prev = frac
	}
}

func TestDecayIsUnidirectional(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "ddr", 1<<14, 4) // inside the all-zero ground block 0
	pattern := make([]byte, m.Size())
	for i := range pattern {
		pattern[i] = 0xFF
	}
	m.Write(0, pattern)
	m.PowerOff()
	env.Advance(3 * sim.Second) // median: ~half the bytes decay
	m.PowerOn()
	got := m.Read(0, m.Size())
	for i, b := range got {
		if b != 0xFF && b != 0x00 {
			t.Fatalf("byte %d decayed to %#x; decay must go to ground only", i, b)
		}
	}
}

func TestMedianRetentionCalibration(t *testing.T) {
	room := MedianRetentionAt(sim.CelsiusToKelvin(25))
	cold := MedianRetentionAt(sim.CelsiusToKelvin(-50))
	if room < sim.Second || room > 10*sim.Second {
		t.Fatalf("room median = %v, want seconds", room)
	}
	if cold < 5*60*sim.Second {
		t.Fatalf("-50°C median = %v, want minutes", cold)
	}
	if math.IsInf(float64(cold), 0) {
		t.Fatal("cold median overflowed")
	}
}

func TestUnpoweredAccessPanics(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "ddr", 1024, 5)
	m.PowerOff()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading unpowered DRAM")
		}
	}()
	m.Read(0, 1)
}

func TestLineInterface(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "ddr", 4096, 6)
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i)
	}
	if err := m.WriteLine(128, line); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := m.ReadLine(128, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, line) {
		t.Fatal("line round trip failed")
	}
	if err := m.ReadLine(4090, buf); err == nil {
		t.Fatal("out-of-range line read should error")
	}
	m.PowerOff()
	if err := m.ReadLine(0, buf); err == nil {
		t.Fatal("unpowered line read should error")
	}
}

func BenchmarkPowerCycle1MB(b *testing.B) {
	env := sim.NewEnv()
	m := NewModule(env, "ddr", 1<<20, 1)
	for i := 0; i < b.N; i++ {
		m.PowerOff()
		env.Advance(10 * sim.Second)
		m.PowerOn()
	}
}

// TestLeastFloat32SatisfyingExact: the float32-space decay thresholds
// must decide exactly the float64 predicates they replace, for every
// float32 neighborhood of the threshold and for the degenerate
// thresholds (±Inf, NaN) the log-space math can produce.
func TestLeastFloat32SatisfyingExact(t *testing.T) {
	thresholds := []float64{
		0, 1e-9, -1e-9, 0.5, -0.5, 3.25, -3.25,
		float64(float32(1.7)), // exactly representable
		1.7,                   // not representable
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, th := range thresholds {
		for _, orEq := range []bool{false, true} {
			s := leastFloat32Satisfying(th, orEq)
			// Probe float32 values bracketing the threshold.
			probes := []float32{
				float32(th),
				math.Nextafter32(float32(th), float32(math.Inf(1))),
				math.Nextafter32(float32(th), float32(math.Inf(-1))),
				-10, 10, 0,
				float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
			}
			for _, lr := range probes {
				var want bool
				if orEq {
					want = float64(lr) >= th
				} else {
					want = float64(lr) > th
				}
				got := lr >= s
				if got != want {
					t.Errorf("th=%v orEq=%v lr=%v: float32 compare %v, float64 predicate %v (s=%v)",
						th, orEq, lr, got, want, s)
				}
			}
		}
	}
}
