package xrand

import "math"

// Exact stream skipping. Two simulator paths draw long runs of values
// that nothing may ever read — an SRAM fingerprint that is overwritten
// before its first access, DRAM retention values below the region an
// attack resolves — yet the stream position after the run is part of
// the determinism contract. The methods here advance the stream to
// exactly that position without producing the values.
//
// xoshiro256**'s state update is a linear map T on GF(2)²⁵⁶, so n steps
// are T^n, and T^n = q(T) for q(x) = x^n mod P(x), where P is T's
// characteristic polynomial (Cayley–Hamilton). T^n factors over the set
// bits of n into the precomputed jumpPolys[k] = x^(2^k) mod P, and
// applying one such polynomial to the state takes 256 engine steps: the
// sum of T^i·s over its set coefficients. This is the construction
// behind the reference xoshiro jump() functions, generalized to any n.

// gf2Poly is a GF(2) polynomial of degree < 256: bit i of word i/64 is
// the coefficient of x^i.
type gf2Poly [4]uint64

var (
	// charPoly holds P(x) − x²⁵⁶, the low 256 coefficients of the
	// engine's characteristic polynomial.
	charPoly gf2Poly
	// jumpPolys[k] = x^(2^k) mod P(x).
	jumpPolys [64]gf2Poly
)

func init() {
	charPoly = deriveCharPoly()
	jumpPolys[0][0] = 2 // x
	for k := 1; k < len(jumpPolys); k++ {
		jumpPolys[k] = mulMod(jumpPolys[k-1], jumpPolys[k-1])
	}
}

// deriveCharPoly recovers P(x) by Berlekamp–Massey from 512 engine
// steps. Any nonzero linear functional of the state — here bit 0 of
// s[0] — yields a bit sequence whose minimal polynomial divides P; the
// xoshiro256 polynomial is primitive, so the minimal polynomial is P
// itself and 2·256 terms determine it. The degree check turns any
// mismatch into a start-up failure rather than a silently wrong jump.
func deriveCharPoly() gf2Poly {
	const deg, n = 256, 512
	r := New(1)
	var seq [n]uint8
	for i := range seq {
		seq[i] = uint8(r.s[0] & 1)
		r.Uint64()
	}
	// Connection polynomial c (c[0] = 1): seq[j] = Σ_{k=1..L} c[k]·seq[j−k].
	var c, b, t [n + 1]uint8
	c[0], b[0] = 1, 1
	l, m := 0, 1
	for j := 0; j < n; j++ {
		d := seq[j]
		for k := 1; k <= l; k++ {
			d ^= c[k] & seq[j-k]
		}
		if d == 0 {
			m++
			continue
		}
		t = c
		for k := 0; k+m <= n; k++ {
			c[k+m] ^= b[k]
		}
		if 2*l <= j {
			l, b, m = j+1-l, t, 1
		} else {
			m++
		}
	}
	if l != deg {
		panic("xrand: characteristic polynomial has unexpected degree")
	}
	// P(x) = x^L + Σ_k c[k]·x^(L−k), so coefficient i is c[L−i].
	var p gf2Poly
	for i := 0; i < deg; i++ {
		p[i>>6] |= uint64(c[deg-i]) << (uint(i) & 63)
	}
	return p
}

// mulMod returns a·b mod P by Horner's rule over b's coefficients: per
// step r ← r·x mod P, then r ← r + a where b has a one. It runs only at
// start-up, squaring the jump table into place.
func mulMod(a, b gf2Poly) gf2Poly {
	var r0, r1, r2, r3 uint64
	p := &charPoly
	for i := 255; i >= 0; i-- {
		over := -(r3 >> 63) // all ones when x²⁵⁶ overflowed
		r3 = (r3<<1 | r2>>63) ^ p[3]&over
		r2 = (r2<<1 | r1>>63) ^ p[2]&over
		r1 = (r1<<1 | r0>>63) ^ p[1]&over
		r0 = r0<<1 ^ p[0]&over
		m := -(b[i>>6] >> (uint(i) & 63) & 1)
		r0 ^= a[0] & m
		r1 ^= a[1] & m
		r2 ^= a[2] & m
		r3 ^= a[3] & m
	}
	return gf2Poly{r0, r1, r2, r3}
}

// Jump advances the generator by exactly n Uint64 draws, leaving the
// same state n sequential calls would. The low eight bits of n are
// stepped (at most 255 draws, cheaper than one polynomial application);
// every higher set bit k applies jumpPolys[k] in 256 engine steps, so a
// power-of-two skip of any length costs about one microsecond. The
// Marsaglia spare carry is left alone, as Uint64 leaves it.
func (r *Rand) Jump(n uint64) {
	for i := n & 255; i > 0; i-- {
		r.Uint64()
	}
	for k := 8; k < 64; k++ {
		if n>>uint(k)&1 == 1 {
			r.applyPoly(&jumpPolys[k])
		}
	}
}

// applyPoly replaces the state s with q(T)·s = Σ q_i·T^i·s.
func (r *Rand) applyPoly(q *gf2Poly) {
	var acc [4]uint64
	for i := 0; i < 256; i++ {
		if q[i>>6]>>(uint(i)&63)&1 == 1 {
			acc[0] ^= r.s[0]
			acc[1] ^= r.s[1]
			acc[2] ^= r.s[2]
			acc[3] ^= r.s[3]
		}
		r.Uint64()
	}
	r.s = acc
}

// SkipNormFloat32 advances the stream exactly as FillNormFloat32 over n
// values would — same draws, same final spare carry — without computing
// the values. Only the polar method's accept/reject test runs per pair;
// the one Log and Sqrt left are for a spare the last pair carries out,
// since later draws read it.
func (r *Rand) SkipNormFloat32(n int) {
	if n > 0 && r.haveSpare {
		r.haveSpare = false
		n--
	}
	for n > 0 {
		u := 2*(float64(r.Uint64()>>11)*(1.0/(1<<53))) - 1
		v := 2*(float64(r.Uint64()>>11)*(1.0/(1<<53))) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		if n == 1 {
			m := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * m
			r.haveSpare = true
			return
		}
		n -= 2
	}
}
