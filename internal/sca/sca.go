// Package sca is the analysis half of the side-channel toolkit: given
// power traces captured by internal/trace, it recovers secrets. Two
// classic techniques are implemented against the repo's AES victim:
//
//   - SPA (spa.go): align traces and match activity peaks to find the
//     round structure of the AES schedule — where in time the leak is.
//   - CPA (this file): correlate per-key-byte Hamming-weight hypotheses
//     against N traces and read the key out of the correlation peaks.
//
// The CPA accumulator is streaming and one-pass: each trace updates
// running sums (Σx, Σx², Σh, Σh², Σhx) from which Pearson's r for
// every (guess, sample) pair is closed-form at the end — no trace
// matrix is retained, so trace count is bounded by capture time, not
// memory. Accumulation order is fixed (trace index order, guesses in
// ascending order), which keeps the float64 sums — and therefore every
// reported correlation — bit-reproducible across runs and GOMAXPROCS
// settings. The per-key-byte searches are independent, so Attack fans
// them out over runner.MapWithResource and reassembles in byte order.
package sca

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/aes"
	"repro/internal/runner"
)

// hwSBox[b] = HW(SBox(b)): the hypothesis table. h[guess] for a trace
// with plaintext byte p is hwSBox[p^guess] — the predicted Hamming
// weight of the round-0 SubBytes writeback the victim leaks.
var hwSBox [256]float64

func init() {
	for b := 0; b < 256; b++ {
		hwSBox[b] = float64(bits.OnesCount8(aes.SBox(byte(b))))
	}
}

// PearsonAcc is the streaming one-pass Pearson accumulator for one key
// byte: 256 guess hypotheses against a window of trace samples.
type PearsonAcc struct {
	// W is the correlation window in samples.
	W int
	// n is the trace count; sx/sxx are per-sample trace sums; sh/shh
	// are per-guess hypothesis sums; shx is the [256][W] cross-sum,
	// flattened guess-major.
	n       float64
	sx, sxx []float64
	sh, shh [256]float64
	shx     []float64
}

// NewPearsonAcc builds an accumulator over a window of w samples.
func NewPearsonAcc(w int) *PearsonAcc {
	return &PearsonAcc{
		W:   w,
		sx:  make([]float64, w),
		sxx: make([]float64, w),
		shx: make([]float64, 256*w),
	}
}

// Add folds one trace into the sums. pt is the trace's known plaintext
// byte for the key byte under attack; t must hold at least W samples.
func (a *PearsonAcc) Add(t []float32, pt byte) {
	a.n++
	for s := 0; s < a.W; s++ {
		x := float64(t[s])
		a.sx[s] += x
		a.sxx[s] += x * x
	}
	for g := 0; g < 256; g++ {
		h := hwSBox[pt^byte(g)]
		a.sh[g] += h
		a.shh[g] += h * h
		if h == 0 {
			continue // a zero hypothesis contributes exactly zero
		}
		row := a.shx[g*a.W : (g+1)*a.W]
		for s := 0; s < a.W; s++ {
			row[s] += h * float64(t[s])
		}
	}
}

// Corr returns Pearson's r between guess g's hypothesis and sample s
// across everything added so far (0 when either side has no variance).
func (a *PearsonAcc) Corr(g int, s int) float64 {
	num := a.n*a.shx[g*a.W+s] - a.sh[g]*a.sx[s]
	dh := a.n*a.shh[g] - a.sh[g]*a.sh[g]
	dx := a.n*a.sxx[s] - a.sx[s]*a.sx[s]
	den := dh * dx
	if den <= 0 {
		return 0
	}
	return num / math.Sqrt(den)
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
func attackByte(traces [][]float32, pts [][]byte, w int, b int) ByteResult {
	acc := NewPearsonAcc(w)
	for i, t := range traces {
		acc.Add(t, pts[i][b])
	}
	var res ByteResult
	best, second := -1.0, -1.0
	for g := 0; g < 256; g++ {
		peak, peakAt := 0.0, 0
		for s := 0; s < w; s++ {
			if r := math.Abs(acc.Corr(g, s)); r > peak {
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
// trace i's 16 plaintext bytes. The 16 byte-searches run in parallel
// over the runner; the result is deterministic — each byte's sums
// accumulate in trace order regardless of worker count.
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
	outs, err := runner.MapWithResource(ctx, 16, workers,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, b int) (ByteResult, error) {
			return attackByte(traces, pts, w, b), nil
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
