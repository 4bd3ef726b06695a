package sca

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aes"
	"repro/internal/xrand"
)

// synthTraces builds n synthetic traces with the victim's leak shape:
// each key byte b leaks HW(SBox(pt[b]^key[b])) at sample 8+4*b, on a
// flat baseline with deterministic uniform noise of the given
// amplitude. Returns traces, plaintexts, and the leak positions.
func synthTraces(n, samples int, key [16]byte, noise float64, seed uint64) ([][]float32, [][]byte, [16]int) {
	rng := xrand.New(seed)
	traces := make([][]float32, n)
	pts := make([][]byte, n)
	var leakAt [16]int
	for b := 0; b < 16; b++ {
		leakAt[b] = 8 + 4*b
	}
	for i := 0; i < n; i++ {
		pt := make([]byte, 16)
		for b := range pt {
			pt[b] = byte(rng.Uint64())
		}
		t := make([]float32, samples)
		for s := range t {
			t[s] = float32(0.62 + noise*(rng.Float64()-0.5))
		}
		for b := 0; b < 16; b++ {
			hw := bits.OnesCount8(aes.SBox(pt[b] ^ key[b]))
			t[leakAt[b]] += float32(hw)
		}
		traces[i], pts[i] = t, pt
	}
	return traces, pts, leakAt
}

// hw is the hypothesis HW(SBox(p)), computed independently of the
// package's transformed tables.
func hw(p byte) int64 { return int64(bits.OnesCount8(aes.SBox(p))) }

var testKey = [16]byte{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

// TestCPARecoversSyntheticKey: with the hypothesis model and the leak
// model in exact agreement, a handful of traces recover every byte at
// rank 0, each peaking at its known leak sample.
func TestCPARecoversSyntheticKey(t *testing.T) {
	traces, pts, leakAt := synthTraces(40, 96, testKey, 1.0, 0xABCD)
	res, err := Attack(context.Background(), traces, pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != testKey {
		t.Fatalf("recovered %x, want %x", res.Key, testKey)
	}
	for b := 0; b < 16; b++ {
		br := &res.Bytes[b]
		if got := br.Rank(testKey[b]); got != 0 {
			t.Errorf("byte %d: true byte at rank %d", b, got)
		}
		if br.PeakAt != leakAt[b] {
			t.Errorf("byte %d: peak at sample %d, want leak sample %d", b, br.PeakAt, leakAt[b])
		}
		if br.Margin <= 0 {
			t.Errorf("byte %d: non-positive margin %g", b, br.Margin)
		}
	}
}

// TestCPAMatchesReference is the differential oracle for the binned,
// transformed sums: every cross-sum equals the direct per-trace sum
// Σᵢ HW(SBox(ptᵢ⊕g))·codeᵢ[s] exactly, Σh and Σh² likewise, and every r
// matches a textbook two-pass float64 Pearson over the same codes. The
// traces mix negative samples, codes at both ends of the digitizer's
// range and a constant (zero-variance) column.
func TestCPAMatchesReference(t *testing.T) {
	const n, w = 300, 6
	edge := float32(maxCode / codeScale)
	rng := xrand.New(0x9E3779B9)
	traces := make([][]float32, n)
	pts := make([][]byte, n)
	for i := range traces {
		tr := make([]float32, w)
		for s := range tr {
			tr[s] = float32(40 * (rng.Float64() - 0.5))
		}
		tr[1] = edge
		if rng.Uint64()&1 == 0 {
			tr[1] = -edge
		}
		if i%7 == 0 {
			tr[2] = -edge
		}
		tr[w-1] = 0.62
		pt := make([]byte, 16)
		for b := range pt {
			pt[b] = byte(rng.Uint64())
		}
		traces[i], pts[i] = tr, pt
	}
	win, err := digitize(traces, w)
	if err != nil {
		t.Fatal(err)
	}
	code := func(i, s int) int64 { return int64(win.codes[i*w+s]) }
	if code(0, 1) != maxCode && code(0, 1) != -maxCode {
		t.Fatalf("edge sample digitized to %d, want ±%d", code(0, 1), maxCode)
	}
	twoPass := func(b, g, s int) float64 {
		var mx, mh float64
		for i := 0; i < n; i++ {
			mx += float64(code(i, s))
			mh += float64(hw(pts[i][b] ^ byte(g)))
		}
		mx /= n
		mh /= n
		var num, dx, dh float64
		for i := 0; i < n; i++ {
			x := float64(code(i, s)) - mx
			h := float64(hw(pts[i][b]^byte(g))) - mh
			num += x * h
			dx += x * x
			dh += h * h
		}
		if dx*dh == 0 {
			return 0
		}
		return num / math.Sqrt(dx*dh)
	}
	a := newByteSums(w)
	for b := 0; b < 16; b++ {
		a.accumulate(win, pts, b)
		for g := 0; g < 256; g++ {
			var sh, shh int64
			for i := 0; i < n; i++ {
				h := hw(pts[i][b] ^ byte(g))
				sh += h
				shh += h * h
			}
			if a.sh[g] != sh || a.shh[g] != shh {
				t.Fatalf("byte %d guess %d: Σh, Σh² = %d, %d; direct %d, %d", b, g, a.sh[g], a.shh[g], sh, shh)
			}
			for s := 0; s < w; s++ {
				var c int64
				for i := 0; i < n; i++ {
					c += hw(pts[i][b]^byte(g)) * code(i, s)
				}
				if got := a.c[g*w+s]; got != c {
					t.Fatalf("byte %d: C[%d][%d] = %d, direct %d", b, g, s, got, c)
				}
				if got, want := a.corr(win, g, s), twoPass(b, g, s); math.Abs(got-want) > 1e-12 {
					t.Fatalf("byte %d: r(%d,%d) = %.17g, two-pass %.17g", b, g, s, got, want)
				}
			}
		}
	}
}

// TestCorrZeroVariance: a constant trace or a constant hypothesis
// yields r = 0, not NaN.
func TestCorrZeroVariance(t *testing.T) {
	check := func(name string, traces [][]float32, pts [][]byte) {
		t.Helper()
		win, err := digitize(traces, 1)
		if err != nil {
			t.Fatal(err)
		}
		a := newByteSums(1)
		a.accumulate(win, pts, 0)
		for g := 0; g < 256; g++ {
			if r := a.corr(win, g, 0); r != 0 || math.IsNaN(r) {
				t.Fatalf("%s: corr(%d,0) = %v, want 0", name, g, r)
			}
		}
	}
	var flat, varied [][]float32
	var distinct, same [][]byte
	for i := 0; i < 8; i++ {
		flat = append(flat, []float32{3.5})
		varied = append(varied, []float32{float32(i) - 2.25})
		pt := make([]byte, 16)
		pt[0] = byte(i)
		distinct = append(distinct, pt)
		same = append(same, make([]byte, 16))
	}
	check("constant trace", flat, distinct)
	check("constant hypothesis", varied, same)
}

// TestAttackValidates pins the input validation.
func TestAttackValidates(t *testing.T) {
	good := [][]float32{{1, 2}, {3, 4}}
	pts := [][]byte{make([]byte, 16), make([]byte, 16)}
	ctx := context.Background()
	if _, err := Attack(ctx, nil, nil, 0, 1); err == nil {
		t.Error("empty trace set accepted")
	}
	if _, err := Attack(ctx, good, pts[:1], 0, 1); err == nil {
		t.Error("plaintext/trace count mismatch accepted")
	}
	if _, err := Attack(ctx, [][]float32{{1, 2}, {3}}, pts, 0, 1); err == nil {
		t.Error("ragged traces accepted")
	}
	if _, err := Attack(ctx, good, [][]byte{make([]byte, 16), make([]byte, 3)}, 0, 1); err == nil {
		t.Error("short plaintext accepted")
	}
	edge := float32(maxCode / codeScale)
	past := math.Nextafter32(edge, float32(math.Inf(1)))
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), past, -past} {
		if _, err := Attack(ctx, [][]float32{{1, 2}, {3, bad}}, pts, 0, 1); err == nil {
			t.Errorf("sample %v accepted", bad)
		}
	}
	if _, err := Attack(ctx, [][]float32{{1, 2}, {3, float32(math.NaN())}}, pts, 1, 1); err != nil {
		t.Errorf("sample outside the window rejected: %v", err)
	}
	if _, err := Attack(ctx, [][]float32{{edge, 2}, {3, -edge}}, pts, 0, 1); err != nil {
		t.Errorf("samples at the digitizer's range edge rejected: %v", err)
	}
	// n²·M² is the tightest bound at the range edge: 362 traces of code
	// 2²³ fit, 363 do not.
	const fit = 362
	traces := make([][]float32, fit+1)
	tall := make([][]byte, fit+1)
	for i := range traces {
		traces[i], tall[i] = []float32{edge}, pts[0]
	}
	if _, err := Attack(ctx, traces[:fit], tall[:fit], 0, 1); err != nil {
		t.Errorf("%d traces at the range edge rejected: %v", fit, err)
	}
	if _, err := Attack(ctx, traces, tall, 0, 1); err == nil {
		t.Errorf("%d traces at the range edge accepted; n·Σx² overflows int64", fit+1)
	}
}

// TestAttackRejectsNonFinite: a damaged trace set fails loudly, naming
// the first bad trace and sample, instead of returning a wrong key.
func TestAttackRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		at, from int
		v        float32
		// whole sets every sample of the trace from `from` on.
		whole bool
	}{
		{"one NaN", 3, 20, float32(math.NaN()), false},
		{"all +Inf", 5, 0, float32(math.Inf(1)), true},
		{"one -Inf", 0, 95, float32(math.Inf(-1)), false},
		{"past range", 7, 8, 1e6, false},
	} {
		traces, pts, _ := synthTraces(40, 96, testKey, 1.0, 0xABCD)
		end := tc.from + 1
		if tc.whole {
			end = len(traces[tc.at])
		}
		for s := tc.from; s < end; s++ {
			traces[tc.at][s] = tc.v
		}
		res, err := Attack(context.Background(), traces, pts, 0, 2)
		if err == nil {
			t.Errorf("%s: no error, recovered key %x", tc.name, res.Key)
			continue
		}
		if want := fmt.Sprintf("trace %d sample %d", tc.at, tc.from); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
	}
}

// TestAttackDeterministicAcrossWorkers: the fan-out leaves no
// scheduling fingerprint on the result.
func TestAttackDeterministicAcrossWorkers(t *testing.T) {
	traces, pts, _ := synthTraces(16, 80, testKey, 2.0, 0xFEED)
	a, err := Attack(context.Background(), traces, pts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attack(context.Background(), traces, pts, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("Attack result depends on worker count")
	}
}

// TestAttackOrderInvariant: the sums are exact, so reversing or
// shuffling the traces (with their plaintexts) leaves every score, peak
// and margin bit-identical.
func TestAttackOrderInvariant(t *testing.T) {
	const n = 1000
	traces, pts, _ := synthTraces(n, 96, testKey, 1.0, 0x0D0E)
	ctx := context.Background()
	want, err := Attack(ctx, traces, pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x5EED)
	shuffle := make([]int, n)
	for i := range shuffle {
		shuffle[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		shuffle[i], shuffle[j] = shuffle[j], shuffle[i]
	}
	for _, order := range []struct {
		name string
		src  func(i int) int
	}{
		{"reversed", func(i int) int { return n - 1 - i }},
		{"shuffled", func(i int) int { return shuffle[i] }},
	} {
		rt, rp := make([][]float32, n), make([][]byte, n)
		for i := range rt {
			rt[i], rp[i] = traces[order.src(i)], pts[order.src(i)]
		}
		got, err := Attack(ctx, rt, rp, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			moved := 0
			for b := range got.Bytes {
				for g := range got.Bytes[b].Scores {
					if got.Bytes[b].Scores[g] != want.Bytes[b].Scores[g] {
						moved++
					}
				}
			}
			t.Errorf("%s traces: result differs (%d of 4096 scores moved)", order.name, moved)
		}
	}
}

// fuzzSet decodes fuzzer bytes into a small trace set: byte 0 picks
// 1–8 traces, byte 1 1–8 samples per trace, byte 2 the attack window
// (0 and anything past the trace length mean the whole trace). Each
// trace then takes 16 plaintext bytes and one little-endian float32 bit
// pattern per sample; bytes past the end of data read as zero.
func fuzzSet(data []byte) (traces [][]float32, pts [][]byte, w int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, samples := 1+int(next()%8), 1+int(next()%8)
	w = int(next() % 10)
	for i := 0; i < n; i++ {
		pt := make([]byte, 16)
		for b := range pt {
			pt[b] = next()
		}
		t := make([]float32, samples)
		for s := range t {
			t[s] = math.Float32frombits(binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()}))
		}
		traces, pts = append(traces, t), append(pts, pt)
	}
	return traces, pts, w
}

// encodeFuzzSet is fuzzSet's inverse, for seeding the corpus.
func encodeFuzzSet(traces [][]float32, pts [][]byte, w int) []byte {
	out := []byte{byte(len(traces) - 1), byte(len(traces[0]) - 1), byte(w)}
	for i, t := range traces {
		out = append(out, pts[i]...)
		for _, x := range t {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
		}
	}
	return out
}

// FuzzAttack feeds Attack arbitrary sample bit patterns and plaintexts:
// it either errors or returns a result, never panics, and a result is
// unchanged when the traces are reversed.
func FuzzAttack(f *testing.F) {
	rng := xrand.New(0xF0)
	traces, pts := make([][]float32, 6), make([][]byte, 6)
	for i := range traces {
		traces[i], pts[i] = make([]float32, 8), make([]byte, 16)
		for s := range traces[i] {
			traces[i][s] = float32(4 * (rng.Float64() - 0.5))
		}
		for b := range pts[i] {
			pts[i][b] = byte(rng.Uint64())
		}
	}
	f.Add(encodeFuzzSet(traces, pts, 0))
	traces[2][5] = float32(math.NaN())
	f.Add(encodeFuzzSet(traces, pts, 0))
	traces[2][5] = float32(math.Inf(1))
	f.Add(encodeFuzzSet(traces, pts, 4))
	traces[2][5] = -float32(maxCode / codeScale)
	traces[4][1] = float32(maxCode / codeScale)
	f.Add(encodeFuzzSet(traces, pts, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, pts, w := fuzzSet(data)
		res, err := Attack(context.Background(), traces, pts, w, 1)
		if err != nil {
			return
		}
		n := len(traces)
		rt, rp := make([][]float32, n), make([][]byte, n)
		for i := range rt {
			rt[i], rp[i] = traces[n-1-i], pts[n-1-i]
		}
		rev, err := Attack(context.Background(), rt, rp, w, 2)
		if err != nil {
			t.Fatalf("reversed set rejected: %v", err)
		}
		if !reflect.DeepEqual(res, rev) {
			t.Fatalf("reversing the traces changed the result:\n%+v\n%+v", res, rev)
		}
	})
}

// BenchmarkCPACorrelate measures the full 16-byte CPA over a realistic
// window: 64 traces × 256 samples, all guesses.
func BenchmarkCPACorrelate(b *testing.B) { benchmarkAttack(b, 64, 256) }

// BenchmarkCPACorrelate1000 runs at fault-sca's shape: sca-cpa's 1000
// traces over its 167-sample round-0 attack window.
func BenchmarkCPACorrelate1000(b *testing.B) { benchmarkAttack(b, 1000, 167) }

func benchmarkAttack(b *testing.B, n, samples int) {
	traces, pts, _ := synthTraces(n, samples, testKey, 1.0, 0xBEEF)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Attack(ctx, traces, pts, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(traces))/b.Elapsed().Seconds(), "traces/s")
}
