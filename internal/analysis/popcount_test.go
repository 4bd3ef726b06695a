package analysis

import (
	"math/bits"
	"testing"

	"repro/internal/xrand"
)

// The chunked population counts must agree with the obvious per-byte
// reference at every tail length (0..15 trailing bytes past the last
// full 8-byte chunk) and at sub-chunk sizes.

func refHamming(a, b []byte) int {
	d := 0
	for i := range a {
		d += bits.OnesCount8(a[i] ^ b[i])
	}
	return d
}

func refOnes(data []byte) int {
	n := 0
	for _, v := range data {
		n += bits.OnesCount8(v)
	}
	return n
}

func randomBytes(seed uint64, n int) []byte {
	out := make([]byte, n)
	xrand.New(seed).Bytes(out)
	return out
}

func TestHammingDistanceTailLengths(t *testing.T) {
	for n := 0; n <= 40; n++ {
		a := randomBytes(uint64(n)+1, n)
		b := randomBytes(uint64(n)+1000, n)
		if got, want := HammingDistance(a, b), refHamming(a, b); got != want {
			t.Fatalf("n=%d: HammingDistance = %d, want %d", n, got, want)
		}
	}
}

func TestFractionalHDTailLengths(t *testing.T) {
	// Explicitly cover n not a multiple of 8, including n < 8.
	for _, n := range []int{1, 3, 7, 9, 15, 17, 63, 65} {
		a := randomBytes(uint64(n)+7, n)
		b := randomBytes(uint64(n)+7000, n)
		want := float64(refHamming(a, b)) / float64(n*8)
		if got := FractionalHD(a, b); got != want {
			t.Fatalf("n=%d: FractionalHD = %v, want %v", n, got, want)
		}
	}
}

func TestFractionOnesTailLengths(t *testing.T) {
	for n := 1; n <= 40; n++ {
		data := randomBytes(uint64(n)+31, n)
		want := float64(refOnes(data)) / float64(n*8)
		if got := FractionOnes(data); got != want {
			t.Fatalf("n=%d: FractionOnes = %v, want %v", n, got, want)
		}
	}
}

// BenchmarkFractionalHD measures the Table 1 error metric over a 64 KB
// image pair — the analysis-side hot path of every experiment.
func BenchmarkFractionalHD(b *testing.B) {
	x := randomBytes(1, 64*1024)
	y := randomBytes(2, 64*1024)
	b.SetBytes(int64(len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FractionalHD(x, y)
	}
}

// BenchmarkFractionOnes measures the Figure 3 bit-balance statistic.
func BenchmarkFractionOnes(b *testing.B) {
	x := randomBytes(3, 64*1024)
	b.SetBytes(int64(len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FractionOnes(x)
	}
}
