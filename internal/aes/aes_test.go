package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// FIPS-197 Appendix A.1 key and Appendix B plaintext/ciphertext.
var (
	fipsKey, _    = hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	fipsPlain, _  = hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	fipsCipher, _ = hex.DecodeString("3925841d02dc09fbdc118597196a0b32")
)

func TestExpandKeyFIPSVector(t *testing.T) {
	sched, err := ExpandKey128(fipsKey)
	if err != nil {
		t.Fatal(err)
	}
	// FIPS-197 A.1: w4..w7 of the expanded schedule.
	want, _ := hex.DecodeString("a0fafe1788542cb123a339392a6c7605")
	if !bytes.Equal(sched[16:32], want) {
		t.Fatalf("round 1 key = %x, want %x", sched[16:32], want)
	}
	// Last round key (w40..w43).
	wantLast, _ := hex.DecodeString("d014f9a8c9ee2589e13f0cc8b6630ca6")
	if !bytes.Equal(sched[160:176], wantLast) {
		t.Fatalf("round 10 key = %x, want %x", sched[160:176], wantLast)
	}
}

func TestEncryptFIPSVector(t *testing.T) {
	sched, _ := ExpandKey128(fipsKey)
	got := make([]byte, 16)
	if err := EncryptBlock(sched, got, fipsPlain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fipsCipher) {
		t.Fatalf("ciphertext = %x, want %x", got, fipsCipher)
	}
}

func TestDecryptInvertsEncrypt(t *testing.T) {
	sched, _ := ExpandKey128(fipsKey)
	ct := make([]byte, 16)
	pt := make([]byte, 16)
	if err := EncryptBlock(sched, ct, fipsPlain); err != nil {
		t.Fatal(err)
	}
	decryptBlock(sched, pt, ct)
	if !bytes.Equal(pt, fipsPlain) {
		t.Fatalf("decrypt(encrypt(p)) = %x, want %x", pt, fipsPlain)
	}
}

// Cross-check against the standard library over random keys and blocks.
func TestAgainstStdlib(t *testing.T) {
	r := xrand.New(7)
	for i := 0; i < 200; i++ {
		key := make([]byte, 16)
		block := make([]byte, 16)
		r.Bytes(key)
		r.Bytes(block)
		std, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 16)
		std.Encrypt(want, block)
		sched, _ := ExpandKey128(key)
		got := make([]byte, 16)
		if err := EncryptBlock(sched, got, block); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x block %x: got %x want %x", key, block, got, want)
		}
		back := make([]byte, 16)
		decryptBlock(sched, back, got)
		if !bytes.Equal(back, block) {
			t.Fatalf("decrypt mismatch")
		}
	}
}

func TestExpandKeyRejectsBadLength(t *testing.T) {
	if _, err := ExpandKey128(make([]byte, 15)); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := ExpandKey128(make([]byte, 32)); err == nil {
		t.Fatal("long key accepted")
	}
}

// Property: the schedule is invertible from ANY round key — the §7.2
// register-theft consequence.
func TestInvertScheduleFromEveryRound(t *testing.T) {
	r := xrand.New(9)
	for trial := 0; trial < 20; trial++ {
		key := make([]byte, 16)
		r.Bytes(key)
		sched, _ := ExpandKey128(key)
		for round := 0; round <= 10; round++ {
			got, err := InvertSchedule128(RoundKey(sched, round), round)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, key) {
				t.Fatalf("round %d inversion: got %x want %x", round, got, key)
			}
		}
	}
}

func TestInvertScheduleValidation(t *testing.T) {
	if _, err := InvertSchedule128(make([]byte, 8), 1); err == nil {
		t.Fatal("short round key accepted")
	}
	if _, err := InvertSchedule128(make([]byte, 16), 11); err == nil {
		t.Fatal("round 11 accepted")
	}
}

func TestCTRRoundTrip(t *testing.T) {
	sched, _ := ExpandKey128(fipsKey)
	msg := []byte("volt boot steals on-chip secrets at full fidelity, no freezing required")
	data := append([]byte(nil), msg...)
	if err := CTRXor(sched, 0xDEADBEEF, data); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(data, msg) {
		t.Fatal("CTR did not change the data")
	}
	if err := CTRXor(sched, 0xDEADBEEF, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, msg) {
		t.Fatal("CTR round trip failed")
	}
}

func TestCTRNonceMatters(t *testing.T) {
	sched, _ := ExpandKey128(fipsKey)
	a := []byte("same plaintext here")
	b := append([]byte(nil), a...)
	if err := CTRXor(sched, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := CTRXor(sched, 2, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("different nonces produced identical ciphertext")
	}
}

func TestDecayedByteCompatible(t *testing.T) {
	// ground 0: observed ones must be true ones.
	if !DecayedByteCompatible(0b1111, 0b1010, 0x00) {
		t.Fatal("valid decay rejected")
	}
	if DecayedByteCompatible(0b1010, 0b1111, 0x00) {
		t.Fatal("bit gain toward 1 accepted with ground 0")
	}
	// ground 0xFF: zeros decay to ones.
	if !DecayedByteCompatible(0b0000_0000, 0b0000_0101, 0xFF) {
		t.Fatal("valid decay toward 1 rejected")
	}
	if DecayedByteCompatible(0b0000_0101, 0b0000_0000, 0xFF) {
		t.Fatal("bit loss accepted with ground 0xFF")
	}
	// identity is always compatible
	if err := quick.Check(func(b, g byte) bool {
		ground := byte(0)
		if g&1 == 1 {
			ground = 0xFF
		}
		return DecayedByteCompatible(b, b, ground)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCandidatesForContainTruth(t *testing.T) {
	if err := quick.Check(func(trueB byte, mask byte) bool {
		obs := trueB &^ mask // decay some ones toward ground 0
		for _, c := range candidatesFor(obs, 0x00) {
			if c == trueB {
				return true
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// decaySchedule flips each set bit to ground with probability delta.
func decaySchedule(sched []byte, ground byte, delta float64, r *xrand.Rand) []byte {
	out := append([]byte(nil), sched...)
	for i := range out {
		for bit := 0; bit < 8; bit++ {
			mask := byte(1) << bit
			groundBit := ground & mask
			if out[i]&mask != groundBit && r.Bernoulli(delta) {
				out[i] = out[i]&^mask | groundBit
			}
		}
	}
	return out
}

func TestReconstructNoDecay(t *testing.T) {
	key := []byte("sixteen byte key")
	sched, _ := ExpandKey128(key)
	got, err := ReconstructKey128(sched, DefaultReconstructConfig(0x00))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatalf("got %x want %x", got, key)
	}
}

func TestReconstructWithDecay(t *testing.T) {
	r := xrand.New(11)
	for _, delta := range []float64{0.05, 0.10, 0.15} {
		for trial := 0; trial < 3; trial++ {
			key := make([]byte, 16)
			r.Bytes(key)
			sched, _ := ExpandKey128(key)
			decayed := decaySchedule(sched, 0x00, delta, r)
			got, err := ReconstructKey128(decayed, DefaultReconstructConfig(0x00))
			if err != nil {
				t.Fatalf("delta=%v trial=%d: %v", delta, trial, err)
			}
			if !bytes.Equal(got, key) {
				t.Fatalf("delta=%v: got %x want %x", delta, got, key)
			}
		}
	}
}

func TestReconstructGroundFF(t *testing.T) {
	r := xrand.New(13)
	key := make([]byte, 16)
	r.Bytes(key)
	sched, _ := ExpandKey128(key)
	decayed := decaySchedule(sched, 0xFF, 0.10, r)
	got, err := ReconstructKey128(decayed, DefaultReconstructConfig(0xFF))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatalf("got %x want %x", got, key)
	}
}

// Bidirectional corruption (what bistable SRAM decay produces) must make
// reconstruction fail — the paper's §5.1 point about SRAM post-processing.
func TestReconstructFailsOnBidirectionalNoise(t *testing.T) {
	r := xrand.New(17)
	key := make([]byte, 16)
	r.Bytes(key)
	sched, _ := ExpandKey128(key)
	corrupted := append([]byte(nil), sched...)
	// flip 20% of bits in both directions
	for i := range corrupted {
		for bit := 0; bit < 8; bit++ {
			if r.Bernoulli(0.2) {
				corrupted[i] ^= 1 << bit
			}
		}
	}
	cfg := DefaultReconstructConfig(0x00)
	cfg.MaxNodes = 2_000_000
	if got, err := ReconstructKey128(corrupted, cfg); err == nil && bytes.Equal(got, key) {
		t.Fatal("reconstruction should not succeed on bidirectional noise")
	}
}

func TestReconstructBadLength(t *testing.T) {
	if _, err := ReconstructKey128(make([]byte, 100), DefaultReconstructConfig(0)); err == nil {
		t.Fatal("short image accepted")
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	sched, _ := ExpandKey128(fipsKey)
	dst := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		if err := EncryptBlock(sched, dst, fipsPlain); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct10pct(b *testing.B) {
	r := xrand.New(19)
	key := make([]byte, 16)
	r.Bytes(key)
	sched, _ := ExpandKey128(key)
	decayed := decaySchedule(sched, 0x00, 0.10, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructKey128(decayed, DefaultReconstructConfig(0x00)); err != nil {
			b.Fatal(err)
		}
	}
}

// decryptBlock is the inverse cipher, the oracle that
// TestDecryptInvertsEncrypt and TestAgainstStdlib run EncryptBlock
// against. Nothing outside the tests decrypts a block: the experiments
// use CTR mode, which only encrypts.
func decryptBlock(schedule, dst, src []byte) {
	var inv [256]byte
	for x := range inv {
		inv[sbox[x]] = byte(x)
	}
	var s state
	copy(s[:], src[:16])
	for r := 10; r >= 1; r-- {
		s.addRoundKey(RoundKey(schedule, r))
		if r < 10 {
			for c := 0; c < 4; c++ { // InvMixColumns
				a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
				s[4*c] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9)
				s[4*c+1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13)
				s[4*c+2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11)
				s[4*c+3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14)
			}
		}
		// InvShiftRows rotates row r right by r.
		s[5], s[9], s[13], s[1] = s[1], s[5], s[9], s[13]
		s[10], s[14], s[2], s[6] = s[2], s[6], s[10], s[14]
		s[15], s[3], s[7], s[11] = s[3], s[7], s[11], s[15]
		for i := range s {
			s[i] = inv[s[i]]
		}
	}
	s.addRoundKey(RoundKey(schedule, 0))
	copy(dst, s[:])
}
