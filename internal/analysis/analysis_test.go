package analysis

import (
	"math"
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
