package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "chip")
	b := Derive(7, "noise")
	c := Derive(7, "chip")
	if a.Uint64() != c.Uint64() {
		t.Fatal("Derive with identical labels must produce identical streams")
	}
	a2 := Derive(7, "chip")
	matches := 0
	for i := 0; i < 64; i++ {
		if a2.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("derived streams for different labels overlap: %d matches", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(7)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := 5 + 2*r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBytesDeterministicAndCovering(t *testing.T) {
	a := make([]byte, 37)
	b := make([]byte, 37)
	New(11).Bytes(a)
	New(11).Bytes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bytes not deterministic")
		}
	}
	// over many bytes, all byte values should appear eventually
	big := make([]byte, 1<<16)
	New(12).Bytes(big)
	var seen [256]bool
	for _, v := range big {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("byte value %d never generated in 64KiB", i)
		}
	}
}

func TestUint64BitBalance(t *testing.T) {
	r := New(13)
	ones := 0
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for v != 0 {
			ones += int(v & 1)
			v >>= 1
		}
	}
	frac := float64(ones) / (n * 64)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("bit balance = %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestFillNormFloat32MatchesSequential pins the batch filler to the
// sequential NormFloat64 construction it replaces: same draws, same
// order, same spare carry across call boundaries — the DRAM retention
// fill's bit-identity rides on this equivalence.
func TestFillNormFloat32MatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1001} {
		for _, scale := range []float64{1.0, 0.35, 2.5} {
			ref := New(0xDECAF + uint64(n))
			got := New(0xDECAF + uint64(n))

			want := make([]float32, n)
			for i := range want {
				want[i] = float32(scale * ref.NormFloat64())
			}
			dst := make([]float32, n)
			got.FillNormFloat32(dst, scale)

			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d scale=%v: dst[%d] = %v, want %v", n, scale, i, dst[i], want[i])
				}
			}
			// The streams must stay aligned afterwards, including the spare.
			for k := 0; k < 5; k++ {
				w, g := ref.NormFloat64(), got.NormFloat64()
				if w != g {
					t.Fatalf("n=%d scale=%v: stream diverged after fill at draw %d: %v vs %v", n, scale, k, g, w)
				}
			}
		}
	}
}

// TestFillNormFloat32SpareCarryIn checks the filler consumes a spare left
// behind by a preceding odd NormFloat64 call, as sequential calls would.
func TestFillNormFloat32SpareCarryIn(t *testing.T) {
	ref := New(42)
	got := New(42)
	_ = ref.NormFloat64() // leaves a spare cached
	_ = got.NormFloat64()

	want := make([]float32, 9)
	for i := range want {
		want[i] = float32(1.7 * ref.NormFloat64())
	}
	dst := make([]float32, 9)
	got.FillNormFloat32(dst, 1.7)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}
