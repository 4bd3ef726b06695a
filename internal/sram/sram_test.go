package sram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const nominal = 0.8 // rail voltage used by tests, well above any DRV

func newPoweredArray(t testing.TB, env *sim.Env, bits int, seed uint64) *Array {
	t.Helper()
	a := NewArray(env, "test", bits, seed)
	a.SetRail(nominal)
	return a
}

func fracHD(a, b []byte) float64 {
	if len(a) != len(b) {
		panic("length mismatch")
	}
	d := 0
	for i := range a {
		x := a[i] ^ b[i]
		for x != 0 {
			d += int(x & 1)
			x >>= 1
		}
	}
	return float64(d) / float64(len(a)*8)
}

func TestReadAfterWrite(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 4096, 1)
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF, 0x55, 0xAA}
	a.WriteBytes(100, data)
	got := a.ReadBytes(100, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], data[i])
		}
	}
}

func TestUint64RoundTrip(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 4096, 2)
	if err := quick.Check(func(v uint64) bool {
		a.WriteUint64(64, v)
		return a.ReadUint64(64) == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUintNMatchesByteOps differentially checks the subword fast paths
// against the byte-slice reference for every size × alignment, including
// word-straddling offsets, and verifies neighbouring bytes are untouched.
func TestUintNMatchesByteOps(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 4096, 7)
	ref := newPoweredArray(t, env, 4096, 7)
	pattern := make([]byte, 512)
	for i := range pattern {
		pattern[i] = byte(i*37 + 11)
	}
	a.WriteBytes(0, pattern)
	ref.WriteBytes(0, pattern)
	for size := 1; size <= 8; size++ {
		for off := 0; off < 24; off++ {
			// Read paths agree with the byte reference.
			want := uint64(0)
			for k := size - 1; k >= 0; k-- {
				want = want<<8 | uint64(ref.ReadBytes(off+k, 1)[0])
			}
			if got := a.ReadUintN(off, size); got != want {
				t.Fatalf("ReadUintN(off=%d,size=%d) = %#x, want %#x", off, size, got, want)
			}
			// Write paths mutate identically, with garbage high bits masked.
			v := uint64(0xA5C3_19F0_7E62_B4D8) + uint64(off*size)
			a.WriteUintN(off, size, v)
			buf := make([]byte, size)
			for k := 0; k < size; k++ {
				buf[k] = byte(v >> (8 * k))
			}
			ref.WriteBytes(off, buf)
			ga, gr := a.ReadBytes(0, 64), ref.ReadBytes(0, 64)
			for k := range ga {
				if ga[k] != gr[k] {
					t.Fatalf("WriteUintN(off=%d,size=%d): byte %d diverged: %#x vs %#x", off, size, k, ga[k], gr[k])
				}
			}
		}
	}
}

// TestReadBytesIntoMatchesReadBytes checks the zero-alloc copy form.
func TestReadBytesIntoMatchesReadBytes(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 4096, 9)
	for i := 0; i < a.Bytes(); i++ {
		a.WriteBytes(i, []byte{byte(i * 101)})
	}
	dst := make([]byte, 64)
	for _, off := range []int{0, 1, 7, 8, 63, 200} {
		a.ReadBytesInto(off, dst)
		want := a.ReadBytes(off, len(dst))
		for k := range dst {
			if dst[k] != want[k] {
				t.Fatalf("ReadBytesInto(off=%d): byte %d = %#x, want %#x", off, k, dst[k], want[k])
			}
		}
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1024, 3)
	if err := quick.Check(func(idx uint16, v bool) bool {
		i := int(idx) % 1024
		a.WriteBit(i, v)
		return a.ReadBit(i) == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerUpFingerprintRoughlyHalfOnes(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<16, 4)
	ones := a.FractionOnes()
	if math.Abs(ones-0.5) > 0.03 {
		t.Fatalf("power-up ones fraction = %v, want ~0.5", ones)
	}
}

// Two power-ups of the same silicon should differ by roughly the
// NeutralFraction/2 + biased-noise ≈ 0.10 fractional HD (Table 1 caption).
func TestPowerUpReproducibility(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<16, 5)
	first := a.Snapshot()
	// power off long enough to lose everything at room temperature
	a.SetRail(0)
	env.Advance(100 * sim.Millisecond)
	a.SetRail(nominal)
	second := a.Snapshot()
	hd := fracHD(first, second)
	if hd < 0.05 || hd > 0.16 {
		t.Fatalf("power-up to power-up fractional HD = %v, want ≈0.10", hd)
	}
}

// A full room-temperature power cycle must erase written data: the
// restored state should be ≈50% different from the data and close to the
// array's fingerprint.
func TestRoomTemperaturePowerCycleErases(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<15, 6)
	a.Fill(0xAA)
	data := a.Snapshot()
	a.SetRail(0)
	env.Advance(500 * sim.Millisecond)
	a.SetRail(nominal)
	after := a.Snapshot()
	hd := fracHD(data, after)
	if math.Abs(hd-0.5) > 0.05 {
		t.Fatalf("HD to written data after long power cycle = %v, want ≈0.5", hd)
	}
}

// Holding the rail at nominal across a "power cycle" (the Volt Boot core
// mechanism) must preserve data exactly.
func TestHeldRailRetainsPerfectly(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<15, 7)
	a.Fill(0x5C)
	data := a.Snapshot()
	// rail never moves; time passes arbitrarily long
	env.Advance(10 * sim.Second)
	after := a.Snapshot()
	if fracHD(data, after) != 0 {
		t.Fatal("held rail must retain data with zero error")
	}
}

// Holding the rail at a reduced voltage that is still above every cell's
// DRV must also preserve data exactly (the probe voltage equals nominal in
// the paper, but retention only needs DRV).
func TestRailAboveAllDRVRetains(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<14, 8)
	a.Fill(0x3C)
	data := a.Snapshot()
	a.SetRail(0.6) // above NominalDRV+3σ = 0.42
	env.Advance(5 * sim.Second)
	a.SetRail(nominal)
	after := a.Snapshot()
	if fracHD(data, after) != 0 {
		t.Fatalf("rail at 0.6V must retain all data, HD=%v", fracHD(data, after))
	}
}

// A rail held *inside* the DRV distribution loses exactly the cells whose
// DRV exceeds the held voltage (given a long interval).
func TestPartialRetentionAtIntermediateVoltage(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<15, 9)
	a.Fill(0xFF)
	data := a.Snapshot()
	a.SetRail(0.30) // the mean DRV: ~half the cells should hold
	env.Advance(1 * sim.Second)
	a.SetRail(nominal)
	after := a.Snapshot()
	hd := fracHD(data, after)
	// ~50% of cells lose state; of those, ~50% of fingerprint bits happen
	// to match 0xFF bits anyway, so expect HD ≈ 0.25.
	if hd < 0.15 || hd > 0.35 {
		t.Fatalf("HD at mean-DRV hold = %v, want ≈0.25", hd)
	}
}

// Retention improves monotonically as temperature drops (statistically).
func TestColderRetainsMore(t *testing.T) {
	survivors := func(tempC float64) float64 {
		env := sim.NewEnv()
		env.SetTemperatureC(tempC)
		a := newPoweredArray(t, env, 1<<14, 10)
		a.Fill(0xAA)
		data := a.Snapshot()
		a.SetRail(0)
		env.Advance(20 * sim.Millisecond)
		a.SetRail(nominal)
		return 1 - fracHD(data, a.Snapshot())
	}
	warm := survivors(25)
	cold := survivors(-40)
	frozen := survivors(-110)
	if !(frozen > cold && cold >= warm-0.02) {
		t.Fatalf("retention not monotone in cold: 25°C=%v -40°C=%v -110°C=%v", warm, cold, frozen)
	}
	// Calibration targets: ≈0.5 agreement (i.e. zero retention) when warm,
	// high retention at -110°C for 20ms (the paper cites ~80%).
	if warm > 0.60 {
		t.Fatalf("room-temperature 20ms retention too high: %v", warm)
	}
	if frozen < 0.75 {
		t.Fatalf("-110°C 20ms retention too low: %v (literature ~0.8)", frozen)
	}
}

// At -40°C a multi-millisecond power cycle must retain essentially
// nothing (Table 1: ~50% error vs stored data).
func TestMinus40MultiMsRetainsNothing(t *testing.T) {
	env := sim.NewEnv()
	env.SetTemperatureC(-40)
	a := newPoweredArray(t, env, 1<<15, 11)
	a.Fill(0x77)
	data := a.Snapshot()
	a.SetRail(0)
	env.Advance(5 * sim.Millisecond)
	a.SetRail(nominal)
	hd := fracHD(data, a.Snapshot())
	if math.Abs(hd-0.5) > 0.06 {
		t.Fatalf("-40°C 5ms HD = %v, want ≈0.5", hd)
	}
}

// Very short power gaps lose little even at room temperature — the
// intrinsic retention time exists, it is just far too short for a manual
// power cycle.
func TestMicrosecondGlitchRetainsMost(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<14, 12)
	a.Fill(0x42)
	data := a.Snapshot()
	a.SetRail(0)
	env.Advance(1 * sim.Microsecond)
	a.SetRail(nominal)
	retained := 1 - fracHD(data, a.Snapshot())
	if retained < 0.80 {
		t.Fatalf("1µs glitch retention = %v, want most cells to hold", retained)
	}
}

func TestSameSeedSameSilicon(t *testing.T) {
	env1 := sim.NewEnv()
	env2 := sim.NewEnv()
	a := newPoweredArray(t, env1, 4096, 99)
	b := newPoweredArray(t, env2, 4096, 99)
	if fracHD(a.Snapshot(), b.Snapshot()) != 0 {
		t.Fatal("same seed must produce the identical power-up fingerprint")
	}
}

func TestDifferentSeedDifferentSilicon(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 1<<14, 1)
	b := newPoweredArray(t, env, 1<<14, 2)
	hd := fracHD(a.Snapshot(), b.Snapshot())
	if math.Abs(hd-0.5) > 0.05 {
		t.Fatalf("different chips should have uncorrelated fingerprints, HD=%v", hd)
	}
}

func TestAccessUnpoweredPanics(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, "cold", 64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading an unpowered array")
		}
	}()
	a.ReadBit(0)
}

func TestOutOfRangePanics(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range write")
		}
	}()
	a.WriteBytes(7, []byte{1, 2}) // 9 bytes > 8 byte array
}

func TestMedianRetentionMonotoneInTemperature(t *testing.T) {
	prev := sim.Time(math.MaxInt64)
	for _, c := range []float64{-150, -110, -40, 0, 25, 85} {
		med := MedianRetentionAt(sim.CelsiusToKelvin(c))
		if med >= prev {
			t.Fatalf("median retention not strictly decreasing with temperature at %v°C", c)
		}
		prev = med
	}
}

func TestMedianRetentionCalibration(t *testing.T) {
	at := func(c float64) float64 {
		return float64(MedianRetentionAt(sim.CelsiusToKelvin(c)))
	}
	ms := float64(sim.Millisecond)
	us := float64(sim.Microsecond)
	if v := at(-110); v < 20*ms || v > 200*ms {
		t.Fatalf("-110°C median = %v ns, want tens of ms", v)
	}
	if v := at(-40); v < 50*us || v > 1000*us {
		t.Fatalf("-40°C median = %v ns, want hundreds of µs", v)
	}
	if v := at(25); v > 50*us {
		t.Fatalf("25°C median = %v ns, want ≲ tens of µs", v)
	}
}

// TestDerivedConstantsMatchCalibration pins the thresholds derived from
// the calibration to the float64 values the reference model computes at
// run time: the retention threshold to NominalDRV + 3·DRVSigma, and the
// kernels' two integer sampling gates to the reference's float
// predicates (biasedMin is the least 24-bit field meeting
// m/2²⁴ ≥ NeutralFraction; biasFlipBelow is ⌈BiasNoise·2⁵³⌉, the bound a
// 53-bit draw must stay under for Float64() < BiasNoise).
func TestDerivedConstantsMatchCalibration(t *testing.T) {
	nominal, sigma := float64(NominalDRV), float64(DRVSigma)
	if got, want := float64(RetentionThreshold), nominal+3*sigma; got != want {
		t.Errorf("RetentionThreshold = %v, run-time NominalDRV+3*DRVSigma = %v", got, want)
	}
	neutral := float64(NeutralFraction)
	if float64(biasedMin)/float64(1<<24) < neutral || float64(biasedMin-1)/float64(1<<24) >= neutral {
		t.Errorf("biasedMin = %d is not the least m with m/2^24 >= %v", biasedMin, neutral)
	}
	noise := float64(BiasNoise)
	if want := uint64(math.Ceil(noise * (1 << 53))); biasFlipBelow != want {
		t.Errorf("biasFlipBelow = %d, want ceil(BiasNoise*2^53) = %d", uint64(biasFlipBelow), want)
	}
}

func TestSnapshotMatchesReadBytes(t *testing.T) {
	env := sim.NewEnv()
	a := newPoweredArray(t, env, 2048, 20)
	a.Fill(0x9B)
	snap := a.Snapshot()
	rb := a.ReadBytes(0, a.Bytes())
	for i := range snap {
		if snap[i] != rb[i] {
			t.Fatal("Snapshot and ReadBytes disagree")
		}
	}
	if len(snap) != 256 {
		t.Fatalf("snapshot length %d, want 256", len(snap))
	}
}

// BenchmarkPowerCycle64KB times a room-temperature power cycle of a
// 64 KB array followed by one read. The cycle decays every cell, which
// only defers the resample (pend); the read draws it, so the benchmark
// keeps timing the resample kernel rather than the jump.
func BenchmarkPowerCycle64KB(b *testing.B) {
	env := sim.NewEnv()
	a := NewArray(env, "bench", 64*1024*8, 1)
	a.SetRail(nominal)
	for i := 0; i < b.N; i++ {
		a.SetRail(0)
		env.Advance(10 * sim.Millisecond)
		a.SetRail(nominal)
		_ = a.ReadUint64(0)
	}
}

func BenchmarkReadBytes4KB(b *testing.B) {
	env := sim.NewEnv()
	a := NewArray(env, "bench", 4*1024*8, 1)
	a.SetRail(nominal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.ReadBytes(0, 4096)
	}
}
