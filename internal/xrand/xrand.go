// Package xrand provides small, fast, deterministic pseudo-random number
// generators and distribution samplers used throughout the simulator.
//
// Everything stochastic in the reproduction — silicon process variation,
// SRAM power-up fingerprints, retention-time sampling, kernel noise — is
// derived from an xrand generator seeded from an experiment configuration,
// so every experiment is reproducible bit-for-bit. The implementation is
// xoshiro256** seeded via splitmix64, following the reference constructions
// by Blackman and Vigna.
package xrand

import (
	"math"
	"math/bits"
)

// GoldenGamma is the splitmix64 state increment (2⁶⁴/φ rounded to odd).
// Exported so batch kernels can jump a splitmix stream to its k-th output
// without materializing the intermediate states: the state after k steps
// is simply state + k·GoldenGamma, and the k-th output is Mix64 of that.
const GoldenGamma uint64 = 0x9e3779b97f4a7c15

// SplitMix64 advances the given state by one step and returns the next
// 64-bit output. It is used both as a stand-alone generator for cheap
// one-off derivations and to seed Rand state.
func SplitMix64(state *uint64) uint64 {
	*state += GoldenGamma
	return Mix64(*state)
}

// Mix64 is the splitmix64 output finalizer: a bijective avalanche mix of
// its input. SplitMix64(&st) ≡ { st += GoldenGamma; return Mix64(st) },
// which lets vectorized code compute the k-th output of a stream as
// Mix64(st + k·GoldenGamma) and skip outputs it does not need while
// remaining bit-identical to the sequential construction.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not valid; obtain
// instances with New or Derive.
type Rand struct {
	s [4]uint64
	// cached spare gaussian value for NormFloat64 (Marsaglia polar method)
	haveSpare bool
	spare     float64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix output of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Derive returns a new generator whose stream is a deterministic function
// of the parent seed and the label. It is the standard way to give each
// subsystem (a chip, a cache, a noise source) an independent stream.
func Derive(seed uint64, label string) *Rand {
	h := seed
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3 // FNV-1a prime, folded into splitmix seeding
		SplitMix64(&h)
	}
	return New(h)
}

// State is a snapshot of a Rand's complete stream position: the four
// xoshiro256** state words plus the Marsaglia spare-value carry. Restoring
// it with SetState resumes the stream bit-for-bit, including the parity of
// NormFloat64 pairs, which is what lets SoC snapshots replay a trial
// identically to the boot that captured it.
type State struct {
	S         [4]uint64
	HaveSpare bool
	Spare     float64
}

// State captures the generator's current stream position.
func (r *Rand) State() State {
	return State{S: r.s, HaveSpare: r.haveSpare, Spare: r.spare}
}

// SetState rewinds (or fast-forwards) the generator to a previously
// captured stream position.
func (r *Rand) SetState(st State) {
	r.s = st.S
	r.haveSpare = st.HaveSpare
	r.spare = st.Spare
}

// Uint64 returns the next 64 bits from the stream. bits.RotateLeft64 is a
// compiler intrinsic that the inliner costs at ~1 node, which keeps this
// whole function under the inlining budget — every hot sampling kernel
// (SRAM power-up, DRAM retention fill) then advances the state without a
// call. The rotation is bit-identical to the shift-pair it replaced.
func (r *Rand) Uint64() uint64 {
	s1 := r.s[1]
	result := bits.RotateLeft64(s1*5, 7) * 9
	r.s[2] ^= r.s[0]
	r.s[3] ^= s1
	r.s[1] = s1 ^ r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= s1 << 17
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1). The scale by 2⁻⁵³ is a
// multiplication by an exactly-representable power of two, so the result
// is bit-identical to dividing by 2⁵³ while avoiding a hardware divide on
// the simulator's hottest sampling path.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		// Each draw is the Float64 expression spelled out so the inlined
		// Uint64 state update lands directly in this loop: the DRAM
		// retention fill draws tens of millions of normals per experiment
		// and the per-draw call overhead was measurable. Bit-identical to
		// 2*r.Float64() - 1.
		u := 2*(float64(r.Uint64()>>11)*(1.0/(1<<53))) - 1
		v := 2*(float64(r.Uint64()>>11)*(1.0/(1<<53))) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.haveSpare = true
		return u * m
	}
}

// FillNormFloat32 fills dst[i] = float32(scale · NormFloat64()) for every
// i, consuming the stream exactly as len(dst) sequential NormFloat64
// calls would — including the spare-value carry across the call boundary
// — but with the polar loop and the inlined xoshiro update living in one
// function. DRAM retention fills draw tens of millions of normals; the
// per-value method-call and spare-branch overhead was measurable there.
func (r *Rand) FillNormFloat32(dst []float32, scale float64) {
	i := 0
	if r.haveSpare && i < len(dst) {
		r.haveSpare = false
		dst[i] = float32(scale * r.spare)
		i++
	}
	for i < len(dst) {
		u := 2*(float64(r.Uint64()>>11)*(1.0/(1<<53))) - 1
		v := 2*(float64(r.Uint64()>>11)*(1.0/(1<<53))) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		dst[i] = float32(scale * (u * m))
		i++
		if i < len(dst) {
			dst[i] = float32(scale * (v * m))
			i++
		} else {
			r.spare = v * m
			r.haveSpare = true
		}
	}
}

// Perm fills a permutation of [0, n) using the Fisher–Yates shuffle.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills b with random bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
