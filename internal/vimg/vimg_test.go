package vimg

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(17, 5)
	b.Set(16, 4, true)
	b.Set(0, 0, true)
	if !b.Get(16, 4) || !b.Get(0, 0) || b.Get(1, 0) {
		t.Fatal("Set/Get mismatch")
	}
	b.Set(16, 4, false)
	if b.Get(16, 4) {
		t.Fatal("clear failed")
	}
}

func TestBitmapBoundsPanic(t *testing.T) {
	b := NewBitmap(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Get(8, 0)
}

func TestFromBitsToBytesRoundTrip(t *testing.T) {
	data := make([]byte, 512)
	xrand.New(4).Bytes(data)
	b := FromBits(data, 64) // 64 px wide, 64 rows
	back := b.ToBytes()
	if !bytes.Equal(back, data) {
		t.Fatal("FromBits/ToBytes round trip failed")
	}
}

func TestFromBitsBitOrder(t *testing.T) {
	// bit 0 of byte 0 must be pixel (0,0)
	b := FromBits([]byte{0x01}, 8)
	if !b.Get(0, 0) {
		t.Fatal("bit 0 should be pixel (0,0)")
	}
	b = FromBits([]byte{0x80}, 8)
	if !b.Get(7, 0) {
		t.Fatal("bit 7 should be pixel (7,0)")
	}
}

func TestPBMFormat(t *testing.T) {
	b := NewBitmap(16, 2)
	b.Set(0, 0, true)
	pbm := b.PBM()
	if !bytes.HasPrefix(pbm, []byte("P4\n16 2\n")) {
		t.Fatalf("PBM header wrong: %q", pbm[:12])
	}
	body := pbm[len("P4\n16 2\n"):]
	if len(body) != 4 { // 2 bytes per row × 2 rows
		t.Fatalf("PBM body length %d", len(body))
	}
	if body[0] != 0x80 {
		t.Fatalf("PBM MSB-first pixel wrong: %#x", body[0])
	}
}

func TestFractionSet(t *testing.T) {
	b := NewBitmap(8, 2)
	for x := 0; x < 8; x++ {
		b.Set(x, 0, true)
	}
	if f := b.FractionSet(); f != 0.5 {
		t.Fatalf("FractionSet = %v", f)
	}
}

func TestFractionSetMatchesData(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		data := make([]byte, 128)
		xrand.New(seed).Bytes(data)
		b := FromBits(data, 32)
		ones := 0
		for _, by := range data {
			for i := 0; i < 8; i++ {
				ones += int(by >> i & 1)
			}
		}
		want := float64(ones) / float64(len(data)*8)
		return math.Abs(b.FractionSet()-want) < 1e-12
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIDensityShape(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data[:2048] {
		data[i] = 0xFF
	}
	out := ASCIIDensity(data, 32, 4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rows = %d", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 32 {
			t.Fatalf("row width = %d", len([]rune(l)))
		}
	}
	// top half dense, bottom half empty
	if !strings.Contains(lines[0], "@") {
		t.Fatalf("dense row missing dense rune: %q", lines[0])
	}
	if strings.ContainsAny(lines[3], "@%#") {
		t.Fatalf("empty row has dense runes: %q", lines[3])
	}
}

func TestTestPattern512Properties(t *testing.T) {
	p := TestPattern512()
	if len(p) != 512*512/8 {
		t.Fatalf("pattern size = %d, want 32768", len(p))
	}
	// deterministic
	if !bytes.Equal(p, TestPattern512()) {
		t.Fatal("pattern not deterministic")
	}
	// visually structured: neither empty nor full nor perfectly balanced noise
	b := FromBits(p, 512)
	f := b.FractionSet()
	if f < 0.2 || f > 0.8 {
		t.Fatalf("pattern density %v out of expected band", f)
	}
}

func TestSparklineProfile(t *testing.T) {
	s := SparklineProfile([]int{0, 0, 10, 0, 0}, 5)
	if len([]rune(s)) != 5 {
		t.Fatalf("width = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[2] != '█' {
		t.Fatalf("peak rune = %q", runes[2])
	}
	if runes[0] != '▁' {
		t.Fatalf("floor rune = %q", runes[0])
	}
	if SparklineProfile(nil, 10) != "" {
		t.Fatal("empty profile")
	}
	// all-zero profile renders at floor without dividing by zero
	z := SparklineProfile([]int{0, 0, 0}, 3)
	for _, r := range z {
		if r != '▁' {
			t.Fatalf("zero profile rune = %q", r)
		}
	}
}

func TestSparklineDownsamples(t *testing.T) {
	profile := make([]int, 1000)
	profile[999] = 5
	s := SparklineProfile(profile, 10)
	runes := []rune(s)
	if runes[9] != '█' {
		t.Fatalf("downsampled peak missing: %q", s)
	}
}

// FractionSet returns the fraction of set pixels, the density oracle
// of TestTestPattern512Properties.
func (b *Bitmap) FractionSet() float64 {
	ones, total := 0, 0
	for y := 0; y < b.Height; y++ {
		for x := 0; x < b.Width; x++ {
			if b.Get(x, y) {
				ones++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ones) / float64(total)
}
