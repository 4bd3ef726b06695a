package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/board"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func mustKey(t *testing.T) [16]byte {
	t.Helper()
	key, err := ParseSCAKey(SCADefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSCACPARecoversKey: the documented recovery point — 100 traces at
// noise sigma 1.0 recover the full key at rank 0 on every byte. This
// is the acceptance criterion of the side-channel toolkit: the leak
// model in the capturer and the hypothesis model in the attack meet in
// the middle.
func TestSCACPARecoversKey(t *testing.T) {
	key := mustKey(t)
	res, err := SCACPACtx(context.Background(), testSeed, 100, 256, 1.0, key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatalf("CPA failed to recover the key:\n%s", res)
	}
	for i, b := range res.Bytes {
		if b.TrueRank != 0 {
			t.Errorf("byte %d: true key byte at rank %d, want 0", i, b.TrueRank)
		}
	}
	if res.MinMargin <= 0 {
		t.Errorf("recovered key has non-positive margin %g", res.MinMargin)
	}
}

// TestSCACPADeterministicAcrossWorkers: capture fan-out and the 16-way
// CPA fan-out leave no scheduling fingerprint — rendering and the
// binary trace artifact are byte-identical at GOMAXPROCS 1 and 4.
func TestSCACPADeterministicAcrossWorkers(t *testing.T) {
	key := mustKey(t)
	run := func() (string, []byte) {
		res, err := SCACPACtx(context.Background(), testSeed, 24, 256, 0.5, key)
		if err != nil {
			t.Fatal(err)
		}
		art, err := res.TraceArtifact()
		if err != nil {
			t.Fatal(err)
		}
		return res.String(), art
	}
	var serialTxt, parallelTxt string
	var serialArt, parallelArt []byte
	withGOMAXPROCS(t, 1, func() { serialTxt, serialArt = run() })
	withGOMAXPROCS(t, 4, func() { parallelTxt, parallelArt = run() })
	if serialTxt != parallelTxt {
		t.Fatalf("CPA rendering depends on worker count:\n1 worker:\n%s\n4 workers:\n%s", serialTxt, parallelTxt)
	}
	if !bytes.Equal(serialArt, parallelArt) {
		t.Fatalf("trace artifact depends on worker count (%d vs %d bytes)", len(serialArt), len(parallelArt))
	}
}

// TestTraceCaptureArtifactRoundTrip: the VBTR artifact decodes back to
// the captured samples and plaintexts bit-for-bit.
func TestTraceCaptureArtifactRoundTrip(t *testing.T) {
	key := mustKey(t)
	res, err := TraceCaptureCtx(context.Background(), testSeed, 6, 2048, 0.25, key)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.Set.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Samples) != len(res.Set.Traces) {
		t.Fatalf("decoded %d traces, want %d", len(dec.Samples), len(res.Set.Traces))
	}
	for i := range dec.Samples {
		if !bytes.Equal(dec.Aux[i], res.Set.Pts[i]) {
			t.Fatalf("trace %d: aux plaintext did not round-trip", i)
		}
		for j, s := range dec.Samples[i] {
			if s != res.Set.Traces[i][j] {
				t.Fatalf("trace %d sample %d: %g != %g", i, j, s, res.Set.Traces[i][j])
			}
		}
	}
	if res.Set.SamplesPerTrace != res.Set.RunLength {
		t.Fatalf("full-window capture recorded %d samples, victim run length %d",
			res.Set.SamplesPerTrace, res.Set.RunLength)
	}
}

// TestSCASPAFindsRounds: SPA on the averaged trace finds exactly the
// victim's ten round bursts, each containing its known round start, and
// every trace aligns to trace 0 at lag zero.
func TestSCASPAFindsRounds(t *testing.T) {
	key := mustKey(t)
	res, err := SCASPACtx(context.Background(), testSeed, 4, 2048, 0.25, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Peaks) != res.Set.Rounds {
		t.Fatalf("SPA found %d bursts, want %d:\n%s", len(res.Peaks), res.Set.Rounds, res)
	}
	if res.MatchedRounds != res.Set.Rounds {
		t.Fatalf("SPA matched %d/%d round starts:\n%s", res.MatchedRounds, res.Set.Rounds, res)
	}
	for i, lag := range res.Lags {
		if lag != 0 {
			t.Errorf("trace %d aligned at lag %d, want 0", i, lag)
		}
	}
}

// TestArmedTracingDoesNotPerturbGoldens: an armed capturer on every
// board the experiments build must leave the golden outputs untouched —
// trace capture observes retirement and bus traffic but never feeds
// back into execution. Figure 7 and Figure 8 cover the full
// CPU/cache/kernel pipeline; their pins are the same constants the
// plain golden tests check.
func TestArmedTracingDoesNotPerturbGoldens(t *testing.T) {
	prev := boardHook
	boardHook = func(b *board.Board) {
		c, err := trace.New(b.SoC, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		c.Arm()
	}
	defer func() { boardHook = prev }()

	panels, err := Figure7(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, p := range panels {
		out += p.String()
	}
	if got := sha256Hex(out); got != figure7GoldenSHA256 {
		t.Fatalf("armed tracing perturbed Figure7: sha256 = %s, want %s", got, figure7GoldenSHA256)
	}

	res8, err := Figure8(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(res8.String()); got != figure8GoldenSHA256 {
		t.Fatalf("armed tracing perturbed Figure8: sha256 = %s, want %s", got, figure8GoldenSHA256)
	}

	if testing.Short() {
		return
	}
	res4, err := Table4(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(res4.String()); got != table4GoldenSHA256 {
		t.Fatalf("armed tracing perturbed Table4: sha256 = %s, want %s", got, table4GoldenSHA256)
	}
}

// plainBus exposes only the SoC's isa.Bus methods. A CPU built over it
// does not see the predecoded i-stream (isa.DecodedBus), so it fetches
// and decodes every instruction through FetchInstr.
type plainBus struct{ isa.Bus }

// captureTwoPass captures one trial the way the capture protocol did
// while fetches that missed the predecode table reached the bus tap: an
// unarmed run of the whole victim to warm the predecode table and the
// caches, then Reset, the X0–X30 scrub and the armed run to the halt.
func captureTwoPass(t *testing.T, r *scaRig, pt [16]byte) []float32 {
	t.Helper()
	s := r.b.SoC
	cpu := s.Cores[0].CPU
	r.b.RestoreSnapshot(r.snap)
	entry := cpu.PC
	s.WriteDRAM(int(scaStateAddr), pt[:])
	if err := s.RunCore(0, r.budget); err != nil {
		t.Fatal(err)
	}
	cpu.Reset(entry)
	for i := 0; i < isa.XZR; i++ {
		cpu.SetX(i, 0)
	}
	r.cap.Arm()
	err := s.RunCore(0, r.budget)
	r.cap.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), r.cap.Samples()...)
}

// capturePlainFetch captures one trial from a cold restore with core 0
// stepping over plainBus: no predecode table, no superblocks, every
// fetch through FetchInstr.
func capturePlainFetch(t *testing.T, r *scaRig, pt [16]byte) []float32 {
	t.Helper()
	s := r.b.SoC
	r.b.RestoreSnapshot(r.snap)
	s.WriteDRAM(int(scaStateAddr), pt[:])
	orig := s.Cores[0].CPU
	plain := isa.NewCPU(0, orig.Regs, plainBus{s}, s)
	plain.RestoreState(orig.CaptureState())
	s.Cores[0].CPU = plain
	defer func() { s.Cores[0].CPU = orig }()
	c, err := trace.New(s, 0, r.cap.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	start := plain.Instret
	c.Arm()
	for !plain.Halted && len(c.Samples()) < c.Capacity() {
		if plain.Instret-start >= r.budget {
			t.Fatalf("plain-fetch victim did not halt within %d instructions", r.budget)
		}
		if err := plain.Step(); err != nil {
			t.Fatal(err)
		}
	}
	c.Disarm()
	return append([]float32(nil), c.Samples()...)
}

// scaTestPlaintexts returns n ≥ 2 trial plaintexts: all zeros, all ones
// and random ones.
func scaTestPlaintexts(n int) [][16]byte {
	pts := make([][16]byte, n)
	for j := range pts[1] {
		pts[1][j] = 0xFF
	}
	rng := xrand.New(0xC0FFEE)
	for i := 2; i < n; i++ {
		for j := range pts[i] {
			pts[i][j] = byte(rng.Uint64())
		}
	}
	return pts
}

// sameSamples reports whether a and b hold bit-identical samples; if
// not, the index is the first sample that differs, or -1 when the
// lengths do.
func sameSamples(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestCaptureIgnoresDerivedState: a captured trace is a function of the
// committed instructions and their data alone. One trial recorded three
// ways must give bit-identical samples: (a) the rig's one-pass capture
// from a cold restore, (b) the former two-pass protocol, whose warm-up
// run leaves the predecode table and the caches warm, and (c) a core
// with no predecode table at all. Predecode, superblock and cache state
// differ across the three; the samples may not.
func TestCaptureIgnoresDerivedState(t *testing.T) {
	key := mustKey(t)
	v, err := buildSCAVictim()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := newSCARig(testSeed, key, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range scaTestPlaintexts(5) {
		got, err := rig.capture(pt, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != v.RunLength() {
			t.Fatalf("plaintext %d: captured %d samples, victim runs %d instructions", i, len(got), v.RunLength())
		}
		for _, ref := range []struct {
			name    string
			samples []float32
		}{
			{"two-pass warm capture", captureTwoPass(t, rig, pt)},
			{"plain-fetch capture", capturePlainFetch(t, rig, pt)},
		} {
			if at, ok := sameSamples(got, ref.samples); !ok {
				if at < 0 {
					t.Fatalf("plaintext %d: %s has %d samples, one-pass capture %d", i, ref.name, len(ref.samples), len(got))
				}
				t.Fatalf("plaintext %d: %s differs from the one-pass capture at sample %d: %g vs %g",
					i, ref.name, at, ref.samples[at], got[at])
			}
		}
	}
}

// TestCaptureStopsAtWindow: a capture stops once its window is full.
// For every window, each trial records exactly the first
// min(window, run length) samples of a full-length capture of the same
// trial, noise included, and core 0 retires exactly that many
// instructions. A budget below the victim's run length still surfaces
// as a runaway when the window does not stop the run first.
func TestCaptureStopsAtWindow(t *testing.T) {
	key := mustKey(t)
	pts := scaTestPlaintexts(3)
	const sigma = 0.5
	trial := func(r *scaRig, i int) ([]float32, uint64) {
		t.Helper()
		cpu := r.b.SoC.Cores[0].CPU
		r.b.RestoreSnapshot(r.snap)
		start := cpu.Instret
		out, err := r.capture(pts[i], sigma, xrand.New(uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		return out, cpu.Instret - start
	}
	v, err := buildSCAVictim()
	if err != nil {
		t.Fatal(err)
	}
	runLen := v.RunLength()
	full, err := newSCARig(testSeed, key, 2048)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, len(pts))
	for i := range pts {
		var retired uint64
		if want[i], retired = trial(full, i); len(want[i]) != runLen || retired != uint64(runLen) {
			t.Fatalf("full capture: %d samples over %d instructions, want %d of each", len(want[i]), retired, runLen)
		}
	}
	for _, window := range []int{1, 20, 21, 167, 256, 1490, 1491, 2048} {
		rig, err := newSCARig(testSeed, key, window)
		if err != nil {
			t.Fatal(err)
		}
		n := min(window, runLen)
		for i := range pts {
			got, retired := trial(rig, i)
			if retired != uint64(n) {
				t.Errorf("window %d, trial %d: core 0 retired %d instructions, want %d", window, i, retired, n)
			}
			if at, ok := sameSamples(got, want[i][:n]); !ok {
				t.Fatalf("window %d, trial %d: capture is not the first %d samples of the full capture (%d samples, first difference at %d)",
					window, i, n, len(got), at)
			}
		}
	}

	rig, err := newSCARig(testSeed, key, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rig.budget = 100
	_, err = rig.capture(pts[0], 0, nil)
	var runaway *isa.RunawayError
	if !errors.As(err, &runaway) {
		t.Fatalf("capture with a 100-instruction budget and a 2048-sample window: err = %v, want *isa.RunawayError", err)
	}
}

// TestCaptureRejectsBadNoiseSigma: every side-channel experiment rejects
// a noise sigma that is NaN, infinite or negative, naming the parameter,
// before it captures anything (the context is cancelled, so any capture
// would fail with the context's error instead). Sigma 0 stays valid.
func TestCaptureRejectsBadNoiseSigma(t *testing.T) {
	key := mustKey(t)
	runs := []struct {
		name string
		run  func(ctx context.Context, sigma float64) error
	}{
		{"trace-capture", func(ctx context.Context, sigma float64) error {
			_, err := TraceCaptureCtx(ctx, testSeed, 4, 256, sigma, key)
			return err
		}},
		{"sca-spa", func(ctx context.Context, sigma float64) error {
			_, err := SCASPACtx(ctx, testSeed, 4, 256, sigma, key)
			return err
		}},
		{"sca-cpa", func(ctx context.Context, sigma float64) error {
			_, err := SCACPACtx(ctx, testSeed, 4, 256, sigma, key)
			return err
		}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range runs {
		for _, sigma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
			err := r.run(cancelled, sigma)
			if err == nil || !strings.Contains(err.Error(), "noise-sigma") {
				t.Errorf("%s at sigma %g: err = %v, want an error naming noise-sigma", r.name, sigma, err)
			}
		}
		if err := r.run(context.Background(), 0); err != nil {
			t.Errorf("%s at sigma 0: %v", r.name, err)
		}
	}
}
