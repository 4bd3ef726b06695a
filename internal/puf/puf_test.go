package puf

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/sram"
)

func newHarness(t testing.TB, seed uint64, bits int) *Harness {
	t.Helper()
	env := sim.NewEnv()
	arr := sram.NewArray(env, "puf", bits, seed)
	arr.SetRail(0.8)
	return NewHarness(env, arr, 0.8, 100*sim.Millisecond)
}

func TestEnrollValidation(t *testing.T) {
	h := newHarness(t, 1, 1024)
	for _, reads := range []int{0, 1, 2, 4} {
		if _, err := Enroll(h, reads); err == nil {
			t.Errorf("Enroll(%d reads) should fail", reads)
		}
	}
}

func TestEnrollmentStableFraction(t *testing.T) {
	h := newHarness(t, 2, 1<<14)
	e, err := Enroll(h, 5)
	if err != nil {
		t.Fatal(err)
	}
	// ~80% of cells are biased with 2% noise: P(stable over 5 reads) ≈
	// 0.8·(0.98^5 + tiny) ≈ 0.72; neutral cells are stable w.p. 2·2^-5.
	frac := e.StableFraction()
	if frac < 0.60 || frac > 0.85 {
		t.Fatalf("stable fraction = %v, want ≈0.72", frac)
	}
}

func TestSameChipAuthenticates(t *testing.T) {
	h := newHarness(t, 3, 1<<14)
	e, err := Enroll(h, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		hd, ok, err := e.Authenticate(h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("genuine chip rejected (masked HD %v)", hd)
		}
		if hd > 0.10 {
			t.Fatalf("intra-chip masked HD = %v, want a few percent", hd)
		}
	}
}

func TestOtherChipRejected(t *testing.T) {
	hA := newHarness(t, 4, 1<<14)
	hB := newHarness(t, 5, 1<<14)
	e, err := Enroll(hA, 5)
	if err != nil {
		t.Fatal(err)
	}
	hd, ok, err := e.Authenticate(hB)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("different chip accepted (masked HD %v)", hd)
	}
	if math.Abs(hd-0.5) > 0.06 {
		t.Fatalf("inter-chip masked HD = %v, want ≈0.5", hd)
	}
}

// The Volt Boot angle: a stolen power-up image authenticates as the
// device — physical readout clones the "unclonable" function.
func TestStolenImageClonesPUF(t *testing.T) {
	h := newHarness(t, 6, 1<<14)
	e, err := Enroll(h, 5)
	if err != nil {
		t.Fatal(err)
	}
	stolen := h.PowerUpRead() // what Volt Boot exfiltrates
	hd, ok, err := e.AuthenticateImage(stolen)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("stolen image rejected (HD %v) — clone should pass", hd)
	}
}

func TestAuthenticateImageLengthMismatch(t *testing.T) {
	h := newHarness(t, 7, 1024)
	e, err := Enroll(h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AuthenticateImage(make([]byte, 10)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestTRNGOutput(t *testing.T) {
	h := newHarness(t, 8, 1<<15)
	out, err := TRNG(h, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1024 {
		t.Fatalf("output = %d bytes", len(out))
	}
	// Bit balance of the debiased stream.
	ones := 0
	for _, b := range out {
		for i := 0; i < 8; i++ {
			ones += int(b >> i & 1)
		}
	}
	frac := float64(ones) / float64(len(out)*8)
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("TRNG bit balance = %v", frac)
	}
	// No stuck bytes dominating.
	var hist [256]int
	for _, b := range out {
		hist[b]++
	}
	for v, c := range hist {
		if c > 40 { // 1024 bytes, uniform ≈ 4 per value
			t.Fatalf("byte %#x appears %d times", v, c)
		}
	}
}

func TestTRNGTwoRunsDiffer(t *testing.T) {
	h := newHarness(t, 9, 1<<15)
	a, err := TRNG(h, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TRNG(h, 256)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 16 {
		t.Fatalf("%d/256 identical bytes across TRNG runs", same)
	}
}

func TestTRNGValidation(t *testing.T) {
	h := newHarness(t, 10, 1024)
	if _, err := TRNG(h, 0); err == nil {
		t.Fatal("zero-size TRNG request should fail")
	}
}
