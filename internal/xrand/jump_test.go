package xrand

import "testing"

// Differential oracles for the skip paths: each must leave exactly the
// stream position (State, spare carry included) of the plain loop it
// replaces. The SRAM lazy power-up and the DRAM retention checkpoints
// ride on this equivalence.

// jumpLengths covers the stepping cutoff (255/256/257), odd lengths,
// powers of two and their neighbours up to 2²⁰ (the size of a 128 KiB
// SRAM array's fingerprint draw).
var jumpLengths = []uint64{
	0, 1, 2, 63, 255, 256, 257, 1000, 4095, 4096, 65537,
	1<<19 - 1, 1 << 19, 1<<20 - 3, 1 << 20,
}

func TestJumpMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 0x5EED, 0xDEADBEEF, 0xFFFFFFFFFFFFFFFF} {
		for _, n := range jumpLengths {
			ref, got := New(seed), New(seed)
			_ = ref.NormFloat64() // a carried spare must pass through untouched
			_ = got.NormFloat64()
			for i := uint64(0); i < n; i++ {
				ref.Uint64()
			}
			got.Jump(n)
			if ref.State() != got.State() {
				t.Fatalf("seed %#x: Jump(%d) state %+v, want %+v", seed, n, got.State(), ref.State())
			}
		}
	}
}

// TestJumpComposes checks jump lengths far beyond what a sequential
// oracle can reach. Doubling pins every table entry to the one below it
// through the state alone (T^(2^k) = T^(2^(k−1))·T^(2^(k−1))), which,
// with the entries TestJumpMatchesSequential covers, pins all 64; the
// sums check that set bits combine, and that a jump agrees with
// stepping its last stretch.
func TestJumpComposes(t *testing.T) {
	for k := uint(1); k < 64; k++ {
		once, twice := New(0xC0FFEE), New(0xC0FFEE)
		once.Jump(1 << k)
		twice.Jump(1 << (k - 1))
		twice.Jump(1 << (k - 1))
		if once.State() != twice.State() {
			t.Fatalf("Jump(2^%d) != two Jump(2^%d)", k, k-1)
		}
	}
	for _, c := range []struct{ a, b uint64 }{
		{1 << 40, 12345},
		{0xDEADBEEF12, 0x1234567890},
		{1<<63 - 1, 1},
		{3, 1<<62 + 5},
	} {
		split, whole := New(0xC0FFEE), New(0xC0FFEE)
		split.Jump(c.a)
		split.Jump(c.b)
		whole.Jump(c.a + c.b)
		if split.State() != whole.State() {
			t.Fatalf("Jump(%d)+Jump(%d) != Jump(%d)", c.a, c.b, c.a+c.b)
		}
		stepped := New(0xC0FFEE)
		stepped.Jump(c.a + c.b - 300)
		for i := 0; i < 300; i++ {
			stepped.Uint64()
		}
		if stepped.State() != whole.State() {
			t.Fatalf("Jump(%d) disagrees with Jump(%d) plus 300 steps", c.a+c.b, c.a+c.b-300)
		}
	}
}

func TestSkipNormFloat32MatchesFill(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, 64, 1001, 4096, 1<<20 - 1, 1 << 20}
	for _, seed := range []uint64{7, 0x5EED, 0xA57A105} {
		for _, n := range lengths {
			for _, carry := range []bool{false, true} {
				ref, got := New(seed), New(seed)
				if carry {
					_ = ref.NormFloat64()
					_ = got.NormFloat64()
				}
				ref.FillNormFloat32(make([]float32, n), 1)
				got.SkipNormFloat32(n)
				if ref.State() != got.State() {
					t.Fatalf("seed %#x n=%d carry=%v: SkipNormFloat32 state %+v, want %+v",
						seed, n, carry, got.State(), ref.State())
				}
			}
		}
	}
}

// BenchmarkRandJump times one jump over an 8 Mbit SRAM fingerprint's
// draws, and one with many set bits (the worst case for the polynomial
// products).
func BenchmarkRandJump(b *testing.B) {
	for _, c := range []struct {
		name string
		n    uint64
	}{{"pow2-8Mi", 1 << 23}, {"dense-2^24-1", 1<<24 - 1}} {
		b.Run(c.name, func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				r.Jump(c.n)
			}
		})
	}
}
