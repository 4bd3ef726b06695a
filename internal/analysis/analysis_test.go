package analysis

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestHammingDistanceBasics(t *testing.T) {
	if d := HammingDistance([]byte{0x00}, []byte{0xFF}); d != 8 {
		t.Fatalf("HD = %d, want 8", d)
	}
	if d := HammingDistance([]byte{0xAA, 0x55}, []byte{0xAA, 0x55}); d != 0 {
		t.Fatalf("HD = %d, want 0", d)
	}
	if d := HammingDistance([]byte{0b1010}, []byte{0b0101}); d != 4 {
		t.Fatalf("HD = %d, want 4", d)
	}
}

func TestHammingDistanceProperties(t *testing.T) {
	// symmetry and identity
	if err := quick.Check(func(a, b [16]byte) bool {
		return HammingDistance(a[:], b[:]) == HammingDistance(b[:], a[:]) &&
			HammingDistance(a[:], a[:]) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
	// triangle inequality
	if err := quick.Check(func(a, b, c [8]byte) bool {
		ab := HammingDistance(a[:], b[:])
		bc := HammingDistance(b[:], c[:])
		ac := HammingDistance(a[:], c[:])
		return ac <= ab+bc
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHammingPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HammingDistance([]byte{1}, []byte{1, 2})
}

func TestFractionalHDAndAccuracy(t *testing.T) {
	a := []byte{0xFF, 0xFF}
	b := []byte{0x00, 0xFF}
	if f := FractionalHD(a, b); f != 0.5 {
		t.Fatalf("frac HD = %v", f)
	}
	if acc := RetentionAccuracy(a, b); acc != 0.5 {
		t.Fatalf("accuracy = %v", acc)
	}
	if acc := RetentionAccuracy(a, a); acc != 1.0 {
		t.Fatalf("perfect accuracy = %v", acc)
	}
	if FractionalHD(nil, nil) != 0 {
		t.Fatal("empty input should be 0")
	}
}

func TestFractionOnes(t *testing.T) {
	if f := FractionOnes([]byte{0xFF, 0x00}); f != 0.5 {
		t.Fatalf("FractionOnes = %v", f)
	}
	if f := FractionOnes([]byte{0x0F}); f != 0.5 {
		t.Fatalf("FractionOnes = %v", f)
	}
	if FractionOnes(nil) != 0 {
		t.Fatal("empty input")
	}
}

func TestBlockHDProfile(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	// corrupt bytes 64..127 (block 1 with 512-bit blocks)
	for i := 64; i < 128; i++ {
		b[i] = 0xFF
	}
	prof := BlockHDProfile(a, b, 512)
	if len(prof) != 4 {
		t.Fatalf("profile length %d, want 4", len(prof))
	}
	if prof[0] != 0 || prof[1] != 64*8 || prof[2] != 0 || prof[3] != 0 {
		t.Fatalf("profile = %v", prof)
	}
}

func TestBlockHDProfilePartialTail(t *testing.T) {
	a := make([]byte, 100) // not a multiple of 64
	b := make([]byte, 100)
	b[99] = 0x01
	prof := BlockHDProfile(a, b, 512)
	if len(prof) != 2 {
		t.Fatalf("profile length %d, want 2", len(prof))
	}
	if prof[1] != 1 {
		t.Fatalf("tail block HD = %d", prof[1])
	}
}

func TestBlockHDProfileValidation(t *testing.T) {
	for _, bad := range []int{0, -8, 7} {
		func() {
			defer func() { _ = recover() }()
			BlockHDProfile([]byte{1}, []byte{1}, bad)
			t.Errorf("blockBits=%d accepted", bad)
		}()
	}
}

func TestFindErrorClusters(t *testing.T) {
	profile := []int{0, 0, 50, 60, 70, 0, 0, 30, 0, 90}
	clusters := FindErrorClusters(profile, 10)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %+v", clusters)
	}
	if clusters[0].FirstBlock != 2 || clusters[0].LastBlock != 4 || clusters[0].TotalBits != 180 {
		t.Fatalf("cluster 0 = %+v", clusters[0])
	}
	if clusters[2].FirstBlock != 9 || clusters[2].LastBlock != 9 {
		t.Fatalf("cluster 2 = %+v", clusters[2])
	}
	if got := FindErrorClusters([]int{1, 2, 3}, 100); got != nil {
		t.Fatal("no clusters expected below threshold")
	}
}

func TestFindPattern(t *testing.T) {
	hay := []byte("xxNEEDLExxNEEDLEx")
	offs := FindPattern(hay, []byte("NEEDLE"))
	if len(offs) != 2 || offs[0] != 2 || offs[1] != 10 {
		t.Fatalf("offsets = %v", offs)
	}
	if FindPattern(hay, nil) != nil {
		t.Fatal("empty needle")
	}
	if FindPattern([]byte("ab"), []byte("abc")) != nil {
		t.Fatal("needle longer than haystack")
	}
	// overlapping matches
	if offs := FindPattern([]byte("aaaa"), []byte("aa")); len(offs) != 3 {
		t.Fatalf("overlap offsets = %v", offs)
	}
}

func TestCountAlignedOccurrences(t *testing.T) {
	elem := []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}
	image := make([]byte, 64)
	copy(image[0:], elem)
	copy(image[16:], elem)
	copy(image[9:], elem) // unaligned: must not count
	if n := CountAlignedOccurrences(image, elem); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	if CountAlignedOccurrences(nil, elem) != 0 {
		t.Fatal("empty image")
	}
}

func TestShannonEntropy(t *testing.T) {
	if h := ShannonEntropy(make([]byte, 1000)); h != 0 {
		t.Fatalf("constant data entropy = %v", h)
	}
	rnd := make([]byte, 1<<16)
	xrand.New(5).Bytes(rnd)
	if h := ShannonEntropy(rnd); h < 7.9 {
		t.Fatalf("random data entropy = %v, want ~8", h)
	}
	// two equiprobable symbols → 1 bit
	ab := make([]byte, 1000)
	for i := range ab {
		ab[i] = byte(i % 2)
	}
	if h := ShannonEntropy(ab); math.Abs(h-1) > 0.01 {
		t.Fatalf("two-symbol entropy = %v", h)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
}

func TestRandomImagesScoreHalf(t *testing.T) {
	r := xrand.New(3)
	a := make([]byte, 1<<15)
	b := make([]byte, 1<<15)
	r.Bytes(a)
	r.Bytes(b)
	if f := FractionalHD(a, b); math.Abs(f-0.5) > 0.01 {
		t.Fatalf("random frac HD = %v", f)
	}
}

func BenchmarkHammingDistance64KB(b *testing.B) {
	x := make([]byte, 64*1024)
	y := make([]byte, 64*1024)
	xrand.New(1).Bytes(x)
	xrand.New(2).Bytes(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HammingDistance(x, y)
	}
}

func TestFlipDirections(t *testing.T) {
	before := []byte{0b1111_0000}
	after := []byte{0b1010_0101}
	z2o, o2z := FlipDirections(before, after)
	if z2o != 2 || o2z != 2 {
		t.Fatalf("flips = %d/%d, want 2/2", z2o, o2z)
	}
	// Pure unidirectional decay toward zero.
	z2o, o2z = FlipDirections([]byte{0xFF, 0xFF}, []byte{0x0F, 0x00})
	if z2o != 0 || o2z != 12 {
		t.Fatalf("decay flips = %d/%d, want 0/12", z2o, o2z)
	}
	// Identity.
	z2o, o2z = FlipDirections([]byte{0xAA}, []byte{0xAA})
	if z2o != 0 || o2z != 0 {
		t.Fatal("identity must have no flips")
	}
}

func TestFlipDirectionsDistinguishDecayRegimes(t *testing.T) {
	r := xrand.New(31)
	before := make([]byte, 4096)
	r.Bytes(before)
	// DRAM-style: set bits decay to 0 with p=0.3.
	dram := append([]byte(nil), before...)
	for i := range dram {
		for k := 0; k < 8; k++ {
			if dram[i]>>k&1 == 1 && r.Bernoulli(0.3) {
				dram[i] &^= 1 << k
			}
		}
	}
	z2o, o2z := FlipDirections(before, dram)
	if z2o != 0 || o2z == 0 {
		t.Fatalf("dram regime: %d/%d", z2o, o2z)
	}
	// SRAM-style: decayed cells resample randomly.
	sramImg := append([]byte(nil), before...)
	for i := range sramImg {
		for k := 0; k < 8; k++ {
			if r.Bernoulli(0.3) {
				if r.Bool() {
					sramImg[i] |= 1 << k
				} else {
					sramImg[i] &^= 1 << k
				}
			}
		}
	}
	z2o, o2z = FlipDirections(before, sramImg)
	ratio := float64(z2o) / float64(o2z)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("sram regime should be balanced: %d/%d", z2o, o2z)
	}
}

// TestAlignedElementSetMatchesCount pins the indexed membership test to
// the scan it replaces in Table 4's inner loop.
func TestAlignedElementSetMatchesCount(t *testing.T) {
	image := make([]byte, 128)
	for i := range image {
		image[i] = byte(i % 7)
	}
	// Plant two recognizable elements, one aligned, one misaligned.
	copy(image[16:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
	copy(image[33:], []byte{9, 9, 9, 9, 9, 9, 9, 9})
	set := NewAlignedElementSet(image, 8)
	probes := [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8}, // aligned: present
		{9, 9, 9, 9, 9, 9, 9, 9}, // misaligned only: absent
		image[0:8], image[8:16],  // aligned slots
		{0xFF, 0, 0, 0, 0, 0, 0, 0}, // absent
		image[120:128],              // last aligned slot
	}
	for _, e := range probes {
		want := CountAlignedOccurrences(image, e) > 0
		if got := set.Contains(e); got != want {
			t.Errorf("Contains(%v) = %v, CountAlignedOccurrences > 0 = %v", e, got, want)
		}
	}
	if set.Contains([]byte{1, 2, 3}) {
		t.Error("Contains must reject elements of the wrong size")
	}
	empty := NewAlignedElementSet(nil, 8)
	if empty.Contains(make([]byte, 8)) {
		t.Error("empty image must contain nothing")
	}
}

// FlipDirections counts bit transitions from `before` to `after`:
// ZeroToOne and OneToZero. The ratio distinguishes decay regimes — DRAM
// decays unidirectionally toward its ground state (one counter dominates)
// while bistable SRAM loses bits both ways in equal measure (§5.1), which
// is what defeats error-correcting post-processing on SRAM images.
func FlipDirections(before, after []byte) (zeroToOne, oneToZero int) {
	if len(before) != len(after) {
		panic("analysis: length mismatch")
	}
	i := 0
	for ; i+8 <= len(before); i += 8 {
		x := binary.LittleEndian.Uint64(before[i:])
		y := binary.LittleEndian.Uint64(after[i:])
		diff := x ^ y
		zeroToOne += bits.OnesCount64(diff & y)
		oneToZero += bits.OnesCount64(diff & x)
	}
	for ; i < len(before); i++ {
		diff := before[i] ^ after[i]
		zeroToOne += bits.OnesCount8(diff & after[i])
		oneToZero += bits.OnesCount8(diff & before[i])
	}
	return zeroToOne, oneToZero
}
