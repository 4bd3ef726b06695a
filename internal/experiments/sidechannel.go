package experiments

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/board"
	"repro/internal/isa"
	"repro/internal/runner"
	"repro/internal/sca"
	"repro/internal/soc"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Side-channel scenario memory map (BCM2711 DRAM, below the payload):
// the victim's AES state, the expanded round keys, and the S-box table.
const (
	scaStateAddr = uint64(0x40000)
	scaKeyAddr   = uint64(0x41000)
	scaSBoxAddr  = uint64(0x42000)
	scaOutAddr   = uint64(0x43000)
	// scaRounds is the victim's round count — the full AES-128 depth,
	// so SPA sees the paper-familiar ten-burst schedule.
	scaRounds = 10
)

// SCADefaultKey is the default victim key (the FIPS-197 AES-128 test
// vector key), as the catalog's `key` parameter default.
const SCADefaultKey = "2b7e151628aed2a6abf7158809cf4f3c"

// scaRig is one worker's capture bench: a powered board booted into
// the AES victim with its tables staged, a trace capturer on core 0,
// and a snapshot every trial forks from, taken after one unarmed victim
// run so that trials start warm.
type scaRig struct {
	b    *board.Board
	cap  *trace.Capturer
	snap *board.Snapshot
	// budget bounds one victim run (RunLength plus slack; the victim
	// halts, so this only catches rig bugs).
	budget uint64
}

// buildSCAVictim assembles the AES victim at the scenario's memory map.
// Its layout (run length, round starts, leak samples) is a pure function
// of that map, so reporting code reads it without building a board.
func buildSCAVictim() (*trace.AESVictim, error) {
	return trace.BuildAESVictim(soc.PayloadBase, scaStateAddr, scaKeyAddr, scaSBoxAddr, scaOutAddr, scaRounds)
}

// newSCARig builds a rig whose snapshot is warm. After the cold build
// it runs the victim once, unarmed, so that the snapshot holds the
// victim's code lines in the L1I, its tables in the L1D, and its
// predecode entries and superblocks, all of which restores keep (see
// soc.SoC.RestoreSnapshot). A trace depends on none of them. It does
// depend on the state line: SoC.WriteDRAM stages each trial's plaintext
// through the L2 only, so a state line left in the L1D would serve the
// warm-up's bytes. The warm-up therefore cleans and invalidates that one
// line before the core is reset to the entry.
func newSCARig(seed uint64, key [16]byte, arena int) (*scaRig, error) {
	r, err := bootSCARig(seed, key, arena)
	if err != nil {
		return nil, err
	}
	s := r.b.SoC
	cpu := s.Cores[0].CPU
	entry := cpu.PC
	if err := s.RunCore(0, r.budget); err != nil {
		return nil, err
	}
	if err := s.Cores[0].L1D.CleanInvalidateVA(scaStateAddr); err != nil {
		return nil, err
	}
	cpu.Reset(entry)
	r.snapshot()
	return r, nil
}

// bootSCARig builds a rig up to its snapshot, which it does not take: a
// powered board booted into the AES victim with caches on and its
// tables staged, core 0 reset at the victim's entry, never having run.
func bootSCARig(seed uint64, key [16]byte, arena int) (*scaRig, error) {
	b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	s := b.SoC
	v, err := buildSCAVictim()
	if err != nil {
		return nil, err
	}
	if err := s.Boot(&soc.BootImage{Words: v.Words, EnableCaches: true}); err != nil {
		return nil, err
	}
	if err := v.StageData(s, key); err != nil {
		return nil, err
	}
	cap, err := trace.New(s, 0, arena)
	if err != nil {
		return nil, err
	}
	return &scaRig{b: b, cap: cap, budget: uint64(v.RunLength()) + 64}, nil
}

// snapshot takes the snapshot every trial forks from. The core's
// registers hold the boot firmware's values, or the warm-up's (reset
// clears no register SRAM), so it first scrubs X0–X30: every trial then
// forks from a dead core, and a capture's first Hamming distances count
// from 0.
func (r *scaRig) snapshot() {
	cpu := r.b.SoC.Cores[0].CPU
	for i := 0; i < isa.XZR; i++ {
		cpu.SetX(i, 0)
	}
	r.snap = r.b.CaptureSnapshot()
}

// capture forks the snapshot, stages one plaintext and runs the armed
// victim once, until it halts or the arena is full. The bus tap sees no
// instruction fetches, so the trace depends only on the committed
// instructions and their data, not on what the predecode table, the
// superblocks or the caches hold after a restore; the armed core runs
// in superblocks like an unarmed one. The returned trace carries
// deterministic Gaussian noise of the given sigma (one derived rng
// stream per trial covers plaintext and noise).
func (r *scaRig) capture(pt [16]byte, sigma float64, rng *xrand.Rand) ([]float32, error) {
	r.b.RestoreSnapshot(r.snap)
	r.b.SoC.WriteDRAM(int(scaStateAddr), pt[:])
	r.cap.Arm()
	var err error
	if window := uint64(r.cap.Capacity()); window < r.budget {
		// One committed instruction is one sample, so the arena is full
		// after window instructions; the rest of the run would record
		// nothing.
		_, err = r.b.SoC.RunCoreQuantum(0, window)
	} else {
		err = r.b.SoC.RunCore(0, r.budget)
	}
	r.cap.Disarm()
	if err != nil {
		return nil, err
	}
	samples := r.cap.Samples()
	out := make([]float32, len(samples))
	if sigma == 0 {
		copy(out, samples)
		return out, nil
	}
	for i, x := range samples {
		noise := sigma * rng.NormFloat64()
		out[i] = x + float32(noise)
	}
	return out, nil
}

// SCATraceSet is a captured trace campaign: N aligned victim traces
// with their plaintexts, plus the capture geometry.
type SCATraceSet struct {
	Board      string
	Key        [16]byte
	NoiseSigma float64
	// SamplesPerTrace is the recorded trace length: the victim run
	// length clamped to the requested window.
	SamplesPerTrace int
	// RunLength/Rounds mirror the victim layout for reporting.
	RunLength int
	Rounds    int
	Traces    [][]float32
	Pts       [][]byte
	// RoundStarts are the victim's per-round first-sample indices —
	// SPA ground truth. QuietGap is the inter-round gap width.
	RoundStarts []int
	QuietGap    int
	// LeakSamples are the round-0 per-byte S-box writeback indices —
	// CPA ground truth.
	LeakSamples []int
}

// captureTraceSet runs n trials fanned out over the runner: trial i's
// plaintext and noise come from a seed derived from (seed, i), so the
// set is a parallel pure function of the seed. Traces are reassembled
// in trial order.
func captureTraceSet(ctx context.Context, seed uint64, n, window int, sigma float64, key [16]byte) (*SCATraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sca capture: trace count must be positive, got %d", n)
	}
	if window <= 0 {
		return nil, fmt.Errorf("sca capture: samples window must be positive, got %d", window)
	}
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 {
		return nil, fmt.Errorf("sca capture: noise-sigma must be finite and non-negative, got %g", sigma)
	}
	type cap struct {
		t  []float32
		pt [16]byte
	}
	outs, err := runner.MapWithResource(ctx, n, runtime.GOMAXPROCS(0),
		func() (*scaRig, error) { return newSCARig(seed, key, window) },
		func(rig *scaRig, i int) (cap, error) {
			rng := xrand.New(runner.SeedFor(seed, "sca-trace", i))
			var c cap
			for j := range c.pt {
				c.pt[j] = byte(rng.Uint64())
			}
			t, err := rig.capture(c.pt, sigma, rng)
			if err != nil {
				return cap{}, err
			}
			c.t = t
			return c, nil
		})
	if err != nil {
		return nil, err
	}
	v, err := buildSCAVictim()
	if err != nil {
		return nil, err
	}
	set := &SCATraceSet{
		Board:           soc.BCM2711().Board,
		Key:             key,
		NoiseSigma:      sigma,
		SamplesPerTrace: len(outs[0].t),
		RunLength:       v.RunLength(),
		Rounds:          v.Rounds,
		QuietGap:        v.QuietGap(),
		Traces:          make([][]float32, n),
		Pts:             make([][]byte, n),
	}
	for i, o := range outs {
		set.Traces[i] = o.t
		pt := o.pt
		set.Pts[i] = pt[:]
	}
	for r := 0; r < v.Rounds; r++ {
		set.RoundStarts = append(set.RoundStarts, v.RoundStart(r))
	}
	for b := 0; b < 16; b++ {
		set.LeakSamples = append(set.LeakSamples, v.LeakSample(0, b))
	}
	return set, nil
}

// Artifact encodes the set as a VBTR trace blob (per-trace aux: the
// 16-byte plaintext), the campaign's binary `trace` artifact.
func (s *SCATraceSet) Artifact() ([]byte, error) {
	return trace.EncodeSet(s.Traces, s.Pts)
}

// TraceCaptureResult is the trace-capture experiment's report.
type TraceCaptureResult struct {
	Set *SCATraceSet
}

// TraceCaptureCtx captures n victim traces and reports the capture
// geometry plus per-trace power statistics.
func TraceCaptureCtx(ctx context.Context, seed uint64, n, window int, sigma float64, key [16]byte) (*TraceCaptureResult, error) {
	set, err := captureTraceSet(ctx, seed, n, window, sigma, key)
	if err != nil {
		return nil, err
	}
	return &TraceCaptureResult{Set: set}, nil
}

func (r *TraceCaptureResult) String() string {
	s := r.Set
	var b strings.Builder
	fmt.Fprintf(&b, "Power-trace capture (%s, %d traces x %d samples, %d rounds, noise sigma=%g)\n",
		s.Board, len(s.Traces), s.SamplesPerTrace, s.Rounds, s.NoiseSigma)
	fmt.Fprintf(&b, "  victim run length: %d instructions; key %s\n",
		s.RunLength, hex.EncodeToString(s.Key[:]))
	show := len(s.Traces)
	if show > 4 {
		show = 4
	}
	for i := 0; i < show; i++ {
		mean, peak, peakAt := traceStats(s.Traces[i])
		fmt.Fprintf(&b, "  trace %d: pt %s  mean %.3f  peak %.3f @ %d\n",
			i, hex.EncodeToString(s.Pts[i]), mean, peak, peakAt)
	}
	if show < len(s.Traces) {
		fmt.Fprintf(&b, "  ... %d more traces in the trace artifact\n", len(s.Traces)-show)
	}
	return b.String()
}

func traceStats(t []float32) (mean, peak float64, peakAt int) {
	sum := 0.0
	for i, x := range t {
		v := float64(x)
		sum += v
		if v > peak {
			peak, peakAt = v, i
		}
	}
	return sum / float64(len(t)), peak, peakAt
}

// SCASPAResult is the SPA experiment's report: the round bursts found
// in the smoothed mean trace against the victim's known round starts,
// plus pairwise trace alignment.
type SCASPAResult struct {
	Set *SCATraceSet
	// Peaks are the bursts found in the averaged trace.
	Peaks []sca.Peak
	// MatchedRounds counts victim rounds whose known start falls
	// inside (or within the smoothing window of) a found burst.
	MatchedRounds int
	// Lags[i] is trace i's alignment lag against trace 0 (all zero for
	// the interpreter's perfectly aligned captures).
	Lags []int
}

// spaSmoothWindow and spaThresholdFrac are the peak-matching settings:
// a smoothing window shorter than the victim's quiet gap, and a low
// threshold — just above the quiet-gap floor, well under the activity
// level — so thresholding splits the trace at the gaps; MergeClose then
// absorbs any intra-round dips, which are far narrower than a gap.
const (
	spaSmoothWindow  = 5
	spaThresholdFrac = 0.1
)

// SCASPACtx captures a small trace set and runs SPA: average the
// traces, smooth, threshold, and match the bursts against the victim's
// round schedule; then verify every trace aligns to trace 0 at lag 0.
func SCASPACtx(ctx context.Context, seed uint64, n, window int, sigma float64, key [16]byte) (*SCASPAResult, error) {
	set, err := captureTraceSet(ctx, seed, n, window, sigma, key)
	if err != nil {
		return nil, err
	}
	mean := make([]float32, set.SamplesPerTrace)
	for s := range mean {
		sum := 0.0
		for _, t := range set.Traces {
			sum += float64(t[s])
		}
		v := sum / float64(len(set.Traces))
		mean[s] = float32(v)
	}
	res := &SCASPAResult{
		Set:   set,
		Peaks: sca.MergeClose(sca.Peaks(mean, spaSmoothWindow, spaThresholdFrac), set.QuietGap/2),
	}
	for _, start := range set.RoundStarts {
		for _, p := range res.Peaks {
			if start >= p.Start-spaSmoothWindow && start < p.End+spaSmoothWindow {
				res.MatchedRounds++
				break
			}
		}
	}
	for _, t := range set.Traces {
		lag, _ := sca.Align(set.Traces[0], t, 32)
		res.Lags = append(res.Lags, lag)
	}
	return res, nil
}

func (r *SCASPAResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SPA round matching (%s, %d traces x %d samples, noise sigma=%g)\n",
		r.Set.Board, len(r.Set.Traces), r.Set.SamplesPerTrace, r.Set.NoiseSigma)
	fmt.Fprintf(&b, "  bursts found: %d; victim rounds: %d; matched: %d\n",
		len(r.Peaks), r.Set.Rounds, r.MatchedRounds)
	for i, p := range r.Peaks {
		want := "-"
		if i < len(r.Set.RoundStarts) {
			want = fmt.Sprintf("%d", r.Set.RoundStarts[i])
		}
		fmt.Fprintf(&b, "  burst %d: samples [%d,%d) peak %.3f @ %d (round start %s)\n",
			i, p.Start, p.End, p.Max, p.MaxAt, want)
	}
	allZero := true
	for _, l := range r.Lags {
		if l != 0 {
			allZero = false
		}
	}
	fmt.Fprintf(&b, "  alignment vs trace 0: all-zero lags = %v\n", allZero)
	return b.String()
}

// SCACPAByte is one key byte's CPA outcome, JSON-shaped for the
// cpa_keyrank artifact.
type SCACPAByte struct {
	Guess      uint8   `json:"guess"`
	Corr       float64 `json:"corr"`
	Margin     float64 `json:"margin"`
	PeakSample int     `json:"peak_sample"`
	// TrueRank is the rank of the true key byte among the guesses
	// (0 = recovered).
	TrueRank int `json:"true_rank"`
}

// SCACPAResult is the CPA experiment's report and keyrank artifact.
type SCACPAResult struct {
	Board      string `json:"board"`
	TraceCount int    `json:"traces"`
	Window     int    `json:"window"`
	// AttackWindow is the correlated prefix: the captured window
	// clamped to the victim's round-0 extent.
	AttackWindow int            `json:"attack_window"`
	NoiseSigma   float64        `json:"noise_sigma"`
	TrueKey      string         `json:"true_key"`
	RecoveredKey string         `json:"recovered_key"`
	Recovered    bool           `json:"recovered"`
	MinMargin    float64        `json:"min_margin"`
	Bytes        [16]SCACPAByte `json:"bytes"`

	set *SCATraceSet
}

// SCACPACtx captures n traces of the victim under the given key and
// runs the CPA attack over the first `window` samples, scoring the
// recovery against the true key.
func SCACPACtx(ctx context.Context, seed uint64, n, window int, sigma float64, key [16]byte) (*SCACPAResult, error) {
	set, err := captureTraceSet(ctx, seed, n, window, sigma, key)
	if err != nil {
		return nil, err
	}
	// Attack round 0 only: its round key IS the master key, so the
	// Hamming-weight hypotheses are hypotheses about key bytes. Later
	// rounds leak just as hard but against later round keys — leaving
	// them in the correlation window plants full-strength ghost peaks
	// at rk1[i] and buries the margin.
	attackW := window
	if len(set.RoundStarts) > 1 && set.RoundStarts[1] < attackW {
		attackW = set.RoundStarts[1]
	}
	atk, err := sca.Attack(ctx, set.Traces, set.Pts, attackW, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	res := &SCACPAResult{
		Board:        set.Board,
		TraceCount:   n,
		Window:       set.SamplesPerTrace,
		AttackWindow: attackW,
		NoiseSigma:   sigma,
		TrueKey:      hex.EncodeToString(key[:]),
		RecoveredKey: hex.EncodeToString(atk.Key[:]),
		Recovered:    atk.Key == key,
		MinMargin:    atk.Bytes[0].Margin,
		set:          set,
	}
	for b := 0; b < 16; b++ {
		br := &atk.Bytes[b]
		res.Bytes[b] = SCACPAByte{
			Guess:      br.Best,
			Corr:       br.PeakCorr,
			Margin:     br.Margin,
			PeakSample: br.PeakAt,
			TrueRank:   br.Rank(key[b]),
		}
		if br.Margin < res.MinMargin {
			res.MinMargin = br.Margin
		}
	}
	return res, nil
}

// TraceArtifact returns the captured set as a VBTR blob.
func (r *SCACPAResult) TraceArtifact() ([]byte, error) { return r.set.Artifact() }

func (r *SCACPAResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPA key recovery (%s, %d traces, window %d, attacked %d, noise sigma=%g)\n",
		r.Board, r.TraceCount, r.Window, r.AttackWindow, r.NoiseSigma)
	fmt.Fprintf(&b, "  true key:      %s\n", r.TrueKey)
	fmt.Fprintf(&b, "  recovered key: %s  (recovered=%v, min margin %.3f)\n",
		r.RecoveredKey, r.Recovered, r.MinMargin)
	for i, kb := range r.Bytes {
		fmt.Fprintf(&b, "  byte %2d: guess 0x%02x  |r|=%.3f  margin %.3f  peak @ %d  rank %d\n",
			i, kb.Guess, kb.Corr, kb.Margin, kb.PeakSample, kb.TrueRank)
	}
	return b.String()
}

// ParseSCAKey parses a 32-hex-digit AES-128 key parameter.
func ParseSCAKey(s string) ([16]byte, error) {
	var key [16]byte
	raw, err := hex.DecodeString(strings.TrimPrefix(strings.TrimSpace(s), "0x"))
	if err != nil {
		return key, fmt.Errorf("experiments: key is not hex: %w", err)
	}
	if len(raw) != 16 {
		return key, fmt.Errorf("experiments: key is %d bytes, want 16", len(raw))
	}
	copy(key[:], raw)
	return key, nil
}
