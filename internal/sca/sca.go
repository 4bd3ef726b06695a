// Package sca is the analysis half of the side-channel toolkit: given
// power traces captured by internal/trace, it recovers secrets. Two
// classic techniques are implemented against the repo's AES victim:
//
//   - SPA (spa.go): align traces and match activity peaks to find the
//     round structure of the AES schedule — where in time the leak is.
//   - CPA (this file): correlate per-key-byte Hamming-weight hypotheses
//     against N traces and read the key out of the correlation peaks.
//
// CPA runs on exact integer sums. Attack first digitizes each trace's
// attack window once to integer codes at a fixed step of 2⁻⁸ sample
// units, the way a scope's ADC would. The step's rounding noise
// (step/√12 ≈ 0.0011 units) is far below the σ = 1 measurement noise
// the captures carry: it adds about 10⁻⁶ to a sample's variance. Σx and
// Σx² per sample are then taken once for all 16 key bytes.
//
// The hypothesis HW(SBox(pt⊕g)) depends on a trace only through its
// plaintext byte p. So, per key byte, the codes are binned by p into
// cnt[p] and B[p][s], and every guess's cross-sum becomes an XOR
// convolution: C[g][s] = Σₚ HW(SBox(p⊕g))·B[p][s]. One forward
// 256-point Walsh–Hadamard transform of B, a pointwise product with the
// transformed hypothesis table and one inverse transform give all 256
// guesses at once, about 4.4k integer operations per sample against
// 65k for the direct binned sums. Σh and Σh² per guess come from cnt
// the same way.
//
// Every sum is an exact int64. Codes stay within ±2²³ (samples within
// ±2¹⁵ units, where float32's own spacing reaches the step), and before
// any sum Attack checks, from the actual largest |code| M and the trace
// count n, that n²·M², 2²¹·n·M and 64·n²·M stay below 2⁶³: they bound
// the per-sample sums, every transform intermediate and the Pearson
// numerators. An input past the bound is an error; a sum never wraps.
// Pearson's r is then one fixed sequence of float64 operations on exact
// integers, so the result is identical for any trace order, worker
// count or split of the traces. The 16 key bytes are independent, so
// Attack fans them out over runner.MapWithResource and reassembles in
// byte order.
package sca

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/aes"
	"repro/internal/runner"
)

const (
	// codeScale is the inverse digitizer step: sample x becomes the
	// code round(x·2⁸).
	codeScale = 1 << 8
	// maxCode bounds |code|. At |x| = 2¹⁵ float32 spacing equals the
	// step, so every code in range converts back to its sample grid
	// point exactly.
	maxCode = 1 << 23
)

// hHat and h2Hat are the Walsh–Hadamard transforms of the hypothesis
// table HW(SBox(p)) and of its square. Guess g predicts HW(SBox(p^g))
// for a trace with plaintext byte p, the Hamming weight of the round-0
// SubBytes writeback the victim leaks.
var hHat, h2Hat [256]int64

func init() {
	for p := range hHat {
		h := int64(bits.OnesCount8(aes.SBox(byte(p))))
		hHat[p], h2Hat[p] = h, h*h
	}
	wht(hHat[:], 1)
	wht(h2Hat[:], 1)
}

// wht applies the unnormalized 256-point Walsh–Hadamard transform in
// place to x, viewed as 256 rows of w values: each column is
// transformed. Applying it twice multiplies by 256.
func wht(x []int64, w int) {
	for h := 1; h < 256; h <<= 1 {
		for i := 0; i < 256; i += 2 * h {
			for j := i; j < i+h; j++ {
				a := x[j*w : j*w+w]
				b := x[(j+h)*w:][:len(a)]
				for s, u := range a {
					v := b[s]
					a[s], b[s] = u+v, u-v
				}
			}
		}
	}
}

// xorConvolve replaces x, viewed as 256 rows of w values, with its XOR
// convolution by the kernel whose transform is hat, column by column:
// x'[g] = Σₚ x[p]·k[p^g]. The double transform leaves 256·x'; the
// division is exact.
func xorConvolve(x []int64, w int, hat *[256]int64) {
	wht(x, w)
	for k, h := range hat {
		row := x[k*w : k*w+w]
		for s := range row {
			row[s] *= h
		}
	}
	wht(x, w)
	for i := range x {
		x[i] >>= 8
	}
}

// window is the digitized attack window, shared by all 16 key bytes.
type window struct {
	n, w int
	// codes holds n rows of w codes, in trace order.
	codes []int32
	// sx is Σx per sample; dx is n·Σx² − (Σx)² per sample, n² times
	// the variance.
	sx []int64
	dx []float64
}

// digitize converts the first w samples of every trace to codes and
// takes the per-sample sums. It rejects a non-finite sample, one past
// the digitizer's range, and a set whose sums could overflow.
func digitize(traces [][]float32, w int) (*window, error) {
	n := len(traces)
	win := &window{n: n, w: w, codes: make([]int32, n*w)}
	var m int64
	for i, t := range traces {
		row := win.codes[i*w : i*w+w]
		for s, x := range t[:w] {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return nil, fmt.Errorf("sca: trace %d sample %d is %v", i, s, x)
			}
			c := math.RoundToEven(float64(x) * codeScale)
			if math.Abs(c) > maxCode {
				return nil, fmt.Errorf("sca: trace %d sample %d: %g is outside the digitizer's ±%d range", i, s, x, maxCode/codeScale)
			}
			row[s] = int32(c)
			m = max(m, int64(math.Abs(c)))
		}
	}
	if !sumsFit(int64(n), m) {
		return nil, fmt.Errorf("sca: %d traces with |code| up to %d would overflow the exact sums", n, m)
	}
	sx, sxx := make([]int64, w), make([]int64, w)
	for i := 0; i < n; i++ {
		for s, c := range win.codes[i*w : i*w+w] {
			x := int64(c)
			sx[s] += x
			sxx[s] += x * x
		}
	}
	win.sx, win.dx = sx, make([]float64, w)
	for s := range sx {
		win.dx[s] = float64(int64(n)*sxx[s] - sx[s]*sx[s])
	}
	return win, nil
}

// sumsFit reports whether every integer the CPA forms for n traces
// with |code| ≤ m stays below 2⁶³. n²·m² bounds Σx² and n·Σx² − (Σx)².
// 2²¹·n·m bounds each transform intermediate: the inverse transform adds
// 256 products, each at most Σₚ HW(SBox(p))² = 4608 times the input's
// L1 norm, which is at most n·m. 64·n²·m bounds n·C − Σh·Σx and
// n·Σh² − (Σh)².
func sumsFit(n, m int64) bool {
	m = max(m, 1)
	return mulFits(n, n, m*m) && mulFits(n, m, 1<<21) && mulFits(n, n, 64*m)
}

// mulFits reports whether a·b·c ≤ MaxInt64 for non-negative a, b, c.
func mulFits(a, b, c int64) bool {
	hi, ab := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || ab > math.MaxInt64 {
		return false
	}
	hi, abc := bits.Mul64(ab, uint64(c))
	return hi == 0 && abc <= math.MaxInt64
}

// byteSums holds one key byte's exact sums. A worker reuses one for
// every byte it attacks.
type byteSums struct {
	// sh and shh are Σh and Σh² per guess; dh is n·Σh² − (Σh)².
	sh, shh [256]int64
	dh      [256]float64
	// c holds 256 rows of w: the bins B[p][s] while accumulating, then
	// the cross-sums C[g][s] = Σᵢ HW(SBox(ptᵢ⊕g))·codeᵢ[s].
	c []int64
}

func newByteSums(w int) *byteSums { return &byteSums{c: make([]int64, 256*w)} }

// accumulate bins the window's codes by plaintext byte b and turns the
// bins into every guess's sums.
func (a *byteSums) accumulate(win *window, pts [][]byte, b int) {
	w := win.w
	clear(a.c)
	var cnt [256]int64
	for i := 0; i < win.n; i++ {
		p := int(pts[i][b])
		cnt[p]++
		row := a.c[p*w : p*w+w]
		for s, x := range win.codes[i*w : i*w+w] {
			row[s] += int64(x)
		}
	}
	a.sh, a.shh = cnt, cnt
	xorConvolve(a.sh[:], 1, &hHat)
	xorConvolve(a.shh[:], 1, &h2Hat)
	xorConvolve(a.c, w, &hHat)
	n := int64(win.n)
	for g := range a.dh {
		a.dh[g] = float64(n*a.shh[g] - a.sh[g]*a.sh[g])
	}
}

// corr returns Pearson's r between guess g's hypothesis and sample s,
// or 0 when either side has no variance.
func (a *byteSums) corr(win *window, g, s int) float64 {
	den := a.dh[g] * win.dx[s]
	if den == 0 {
		return 0
	}
	num := int64(win.n)*a.c[g*win.w+s] - a.sh[g]*win.sx[s]
	return float64(num) / math.Sqrt(den)
}

// ByteResult is the CPA outcome for one key byte.
type ByteResult struct {
	// Best is the winning guess: the byte whose peak |r| is highest.
	Best byte
	// PeakCorr is the winner's peak |r|; PeakAt its sample index.
	PeakCorr float64
	PeakAt   int
	// Margin is the winner's peak minus the runner-up's peak — the
	// confidence of the recovery.
	Margin float64
	// Scores holds every guess's peak |r|, for rank computation
	// against a known key.
	Scores [256]float64
}

// Rank returns the rank of byte b among the guesses: 0 when b won, k
// when k guesses scored strictly higher.
func (r *ByteResult) Rank(b byte) int {
	rank := 0
	for g := 0; g < 256; g++ {
		if r.Scores[g] > r.Scores[b] {
			rank++
		}
	}
	return rank
}

// Result is a full 16-byte CPA key recovery.
type Result struct {
	// Key is the recovered key (each byte's winning guess).
	Key [16]byte
	// Bytes holds the per-byte detail.
	Bytes [16]ByteResult
}

// attackByte runs the full guess-space correlation for key byte b.
func attackByte(a *byteSums, win *window, pts [][]byte, b int) ByteResult {
	a.accumulate(win, pts, b)
	var res ByteResult
	best, second := -1.0, -1.0
	for g := 0; g < 256; g++ {
		peak, peakAt := 0.0, 0
		for s := 0; s < win.w; s++ {
			if r := math.Abs(a.corr(win, g, s)); r > peak {
				peak, peakAt = r, s
			}
		}
		res.Scores[g] = peak
		if peak > best {
			second = best
			best = peak
			res.Best, res.PeakCorr, res.PeakAt = byte(g), peak, peakAt
		} else if peak > second {
			second = peak
		}
	}
	res.Margin = best - second
	return res
}

// Attack recovers a 16-byte AES key by CPA over the first w samples of
// each trace (w is clamped to the trace length). pts[i] must hold
// trace i's 16 plaintext bytes. Every sample in the window must be
// finite and within the digitizer's ±2¹⁵ range; the error for one that
// is not names its trace and sample. The 16 byte-searches run in
// parallel over the runner; because every sum is exact, the result
// does not depend on trace order or worker count.
func Attack(ctx context.Context, traces [][]float32, pts [][]byte, w int, workers int) (*Result, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("sca: no traces")
	}
	if len(pts) != len(traces) {
		return nil, fmt.Errorf("sca: %d plaintexts for %d traces", len(pts), len(traces))
	}
	for i, t := range traces {
		if len(t) < 1 {
			return nil, fmt.Errorf("sca: trace %d is empty", i)
		}
		if len(t) < len(traces[0]) {
			return nil, fmt.Errorf("sca: ragged traces (%d: %d samples, 0: %d)", i, len(t), len(traces[0]))
		}
		if len(pts[i]) != 16 {
			return nil, fmt.Errorf("sca: plaintext %d has %d bytes, want 16", i, len(pts[i]))
		}
	}
	if w <= 0 || w > len(traces[0]) {
		w = len(traces[0])
	}
	win, err := digitize(traces, w)
	if err != nil {
		return nil, err
	}
	outs, err := runner.MapWithResource(ctx, 16, workers,
		func() (*byteSums, error) { return newByteSums(w), nil },
		func(a *byteSums, b int) (ByteResult, error) {
			return attackByte(a, win, pts, b), nil
		})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for b, out := range outs {
		res.Bytes[b] = out
		res.Key[b] = out.Best
	}
	return res, nil
}
