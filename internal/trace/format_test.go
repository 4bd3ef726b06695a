package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/trace"
)

func TestEncodeDecodeSetRoundTrip(t *testing.T) {
	traces := [][]float32{
		{1.5, -2.25, 0, 3e-9},
		{0.625, 1e9, -0.0, 42},
	}
	aux := [][]byte{{0xAA, 0xBB}, {0x01, 0x02}}
	blob, err := trace.EncodeSet(traces, aux)
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.DecodeSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Samples) != 2 {
		t.Fatalf("decoded %d traces, want 2", len(set.Samples))
	}
	for i := range traces {
		if !bytes.Equal(set.Aux[i], aux[i]) {
			t.Errorf("aux %d did not round-trip: %x vs %x", i, set.Aux[i], aux[i])
		}
		for j := range traces[i] {
			if set.Samples[i][j] != traces[i][j] {
				t.Errorf("sample [%d][%d] = %g, want %g", i, j, set.Samples[i][j], traces[i][j])
			}
		}
	}
}

func TestEncodeSetNoAux(t *testing.T) {
	blob, err := trace.EncodeSet([][]float32{{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.DecodeSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if set.Aux[0] != nil {
		t.Fatalf("aux-free set decoded aux %x", set.Aux[0])
	}
}

func TestEncodeSetRejectsRagged(t *testing.T) {
	if _, err := trace.EncodeSet([][]float32{{1, 2}, {1}}, nil); err == nil {
		t.Fatal("ragged traces encoded without error")
	}
	if _, err := trace.EncodeSet([][]float32{{1}, {2}}, [][]byte{{1}}); err == nil {
		t.Fatal("aux/trace count mismatch encoded without error")
	}
	if _, err := trace.EncodeSet([][]float32{{1}, {2}}, [][]byte{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged aux encoded without error")
	}
	if _, err := trace.EncodeSet(nil, nil); err == nil {
		t.Fatal("empty set encoded without error")
	}
	if _, err := trace.EncodeSet([][]float32{{}, {}}, nil); err == nil {
		t.Fatal("zero-sample traces encoded without error")
	}
}

func TestDecodeSetRejectsCorrupt(t *testing.T) {
	good, err := trace.EncodeSet([][]float32{{1, 2, 3}}, [][]byte{{9}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":     good[:8],
		"magic":     append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-1],
		"padded":    append(append([]byte(nil), good...), 0),
		// A bare header whose declared size, 2^30 traces of 4 aux bytes
		// plus 2^32-1 samples, wraps to zero in a naive product.
		"overflowing header": header(4, 1<<30, 1<<32-1),
		// A bare header declaring 50M zero-sample traces: no body bytes
		// are missing, yet the row tables alone would take gigabytes.
		"zero-sample header": header(0, 50_000_000, 0),
	}
	for name, blob := range cases {
		if _, err := trace.DecodeSet(blob); err == nil {
			t.Errorf("%s blob decoded without error", name)
		}
	}
	bad := append([]byte(nil), good...)
	bad[4] = 99 // version
	if _, err := trace.DecodeSet(bad); err == nil {
		t.Error("future-version blob decoded without error")
	}
}

// header returns a bare 16-byte VBTR header with the given counts.
func header(auxBytes uint16, ntraces, nsamples uint32) []byte {
	h := make([]byte, 16)
	copy(h, "VBTR")
	binary.LittleEndian.PutUint16(h[4:], 1)
	binary.LittleEndian.PutUint16(h[6:], auxBytes)
	binary.LittleEndian.PutUint32(h[8:], ntraces)
	binary.LittleEndian.PutUint32(h[12:], nsamples)
	return h
}

// FuzzDecodeSet feeds DecodeSet arbitrary bytes. It must never panic
// (or allocate past what the input can justify), and any blob it
// accepts must re-encode to exactly the same bytes: the format has one
// encoding per set.
func FuzzDecodeSet(f *testing.F) {
	good, err := trace.EncodeSet([][]float32{{1, -2.5, 3}, {0, 4, 1e-9}}, [][]byte{{7, 8}, {9, 10}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(header(4, 1<<30, 1<<32-1))
	f.Add(header(0, 50_000_000, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		set, err := trace.DecodeSet(b)
		if err != nil {
			return
		}
		again, err := trace.EncodeSet(set.Samples, set.Aux)
		if err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding changed the bytes:\n in  %x\n out %x", b, again)
		}
	})
}

// TestVictimLayout pins the sample-index geometry the experiments
// depend on: leak samples sit inside their byte group, round starts
// advance by one round length, and everything fits the run length.
func TestVictimLayout(t *testing.T) {
	v, err := trace.BuildAESVictim(0x80000, 0x1000, 0x2000, 0x3000, 0x4000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Words) == 0 || v.Rounds != 10 {
		t.Fatalf("bad victim: %d words, %d rounds", len(v.Words), v.Rounds)
	}
	if v.RunLength() <= v.RoundStart(9) {
		t.Fatalf("run length %d does not cover round 9 start %d", v.RunLength(), v.RoundStart(9))
	}
	for r := 0; r < 10; r++ {
		for i := 0; i < 16; i++ {
			leak := v.LeakSample(r, i)
			if leak <= v.RoundStart(r) || leak >= v.RunLength() {
				t.Fatalf("leak sample (%d,%d) = %d outside the run", r, i, leak)
			}
		}
	}
	if d := v.RoundStart(1) - v.RoundStart(0); d != v.RoundStart(2)-v.RoundStart(1) {
		t.Fatalf("round lengths differ: %d vs %d", d, v.RoundStart(2)-v.RoundStart(1))
	}
	if v.QuietGap() <= 0 {
		t.Fatal("victim has no quiet gap")
	}
	if _, err := trace.BuildAESVictim(0x80000, 0x1000, 0x2000, 0x3000, 0x4000, 99); err == nil {
		t.Fatal("oversized round count accepted")
	}
}
