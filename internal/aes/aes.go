// Package aes implements AES-128 from first principles, plus the
// key-schedule tooling the attack experiments need:
//
//   - schedule expansion and *inversion* (recover the master key from any
//     single round key — why extracting round keys from vector registers
//     in §7.2 immediately breaks TRESOR-style on-chip crypto), and
//   - Halderman-style reconstruction of a master key from a *decayed*
//     schedule image under unidirectional DRAM decay, used by the classic
//     cold boot contrast experiment (§9.1).
//
// The cipher itself is deliberately independent of crypto/aes so the
// repository is self-contained bottom to top; the tests cross-check
// against the standard library and FIPS-197 vectors.
package aes

import (
	"errors"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize128 is the AES-128 key size in bytes.
const KeySize128 = 16

// ScheduleSize128 is the expanded AES-128 key schedule size in bytes
// (11 round keys × 16 bytes).
const ScheduleSize128 = 176

var sbox [256]byte

func init() {
	// Generate the S-box from the algebraic definition: multiplicative
	// inverse in GF(2^8) followed by the affine transform. The inverse
	// table is built by exhaustive search at init time (65k field
	// multiplications — negligible) so the construction is transparently
	// the textbook definition.
	var inverse [256]byte
	for x := 1; x < 256; x++ {
		for y := 1; y < 256; y++ {
			if gmul(byte(x), byte(y)) == 1 {
				inverse[x] = byte(y)
				break
			}
		}
	}
	for x := 0; x < 256; x++ {
		inv := inverse[x]
		s := inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63
		sbox[x] = s
	}
}

// SBox returns the forward S-box substitution of x. The side-channel
// stack uses it on both sides of the attack: the trace victim stages
// the table into DRAM for its SubBytes lookups, and the CPA hypothesis
// model predicts the Hamming weight of SBox(plaintext ^ guess).
func SBox(x byte) byte { return sbox[x] }

func rotl8(x byte, k uint) byte { return x<<k | x>>(8-k) }

// gmul multiplies in GF(2^8) with the AES polynomial.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		b >>= 1
	}
	return p
}

// rcon[i] is the round constant for round i (1-based).
var rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36}

// ExpandKey128 expands a 16-byte key into the 176-byte AES-128 schedule.
func ExpandKey128(key []byte) ([]byte, error) {
	if len(key) != KeySize128 {
		return nil, fmt.Errorf("aes: key length %d, want %d", len(key), KeySize128)
	}
	w := make([]byte, ScheduleSize128)
	copy(w, key)
	for i := 16; i < ScheduleSize128; i += 4 {
		var t [4]byte
		copy(t[:], w[i-4:i])
		if i%16 == 0 {
			// RotWord + SubWord + Rcon
			t[0], t[1], t[2], t[3] = sbox[t[1]]^rcon[i/16], sbox[t[2]], sbox[t[3]], sbox[t[0]]
		}
		for k := 0; k < 4; k++ {
			w[i+k] = w[i-16+k] ^ t[k]
		}
	}
	return w, nil
}

// RoundKey returns round key r (0–10) from a full schedule.
func RoundKey(schedule []byte, r int) []byte {
	return schedule[r*16 : (r+1)*16]
}

// InvertSchedule128 recovers the original 16-byte key from any single
// round key of an AES-128 schedule. This is the classic observation that
// the schedule is invertible: possession of *any* round key (say, one
// lifted out of a vector register) is possession of the master key.
func InvertSchedule128(roundKey []byte, round int) ([]byte, error) {
	if len(roundKey) != 16 {
		return nil, errors.New("aes: round key must be 16 bytes")
	}
	if round < 0 || round > 10 {
		return nil, fmt.Errorf("aes: round %d out of range", round)
	}
	w := make([]byte, 16)
	copy(w, roundKey)
	for r := round; r > 0; r-- {
		prev := make([]byte, 16)
		// Words 1..3 of the previous round key: w[i] = cur[i] ^ cur[i-1].
		for i := 15; i >= 4; i-- {
			prev[i] = w[i] ^ w[i-4]
		}
		// Word 0: cur[0..3] = prev[0..3] ^ SubWord(RotWord(prev[12..15])) ^ rcon
		t := [4]byte{
			sbox[prev[13]] ^ rcon[r],
			sbox[prev[14]],
			sbox[prev[15]],
			sbox[prev[12]],
		}
		for k := 0; k < 4; k++ {
			prev[k] = w[k] ^ t[k]
		}
		w = prev
	}
	return w, nil
}

// state is the 4×4 AES state in column-major order (as the byte stream).
type state [16]byte

func (s *state) addRoundKey(rk []byte) {
	for i := range s {
		s[i] ^= rk[i]
	}
}

func (s *state) subBytes() {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

// shiftRows rotates row r left by r; with column-major layout, row r is
// bytes r, r+4, r+8, r+12.
func (s *state) shiftRows() {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3
		s[4*c+1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3
		s[4*c+2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3)
		s[4*c+3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2)
	}
}

// EncryptBlock encrypts one 16-byte block with the expanded schedule.
func EncryptBlock(schedule, dst, src []byte) error {
	if len(schedule) != ScheduleSize128 {
		return errors.New("aes: bad schedule length")
	}
	if len(dst) < BlockSize || len(src) < BlockSize {
		return errors.New("aes: short block")
	}
	var s state
	copy(s[:], src[:16])
	s.addRoundKey(RoundKey(schedule, 0))
	for r := 1; r <= 9; r++ {
		s.subBytes()
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(RoundKey(schedule, r))
	}
	s.subBytes()
	s.shiftRows()
	s.addRoundKey(RoundKey(schedule, 10))
	copy(dst, s[:])
	return nil
}

// CTRXor encrypts or decrypts data in counter mode with the given 8-byte
// nonce, writing in place. CTR is an involution, so one function serves
// both directions. The experiments use it as the "full disk encryption"
// the attacker ultimately defeats.
func CTRXor(schedule []byte, nonce uint64, data []byte) error {
	var ctr, ks [16]byte
	for i := 0; i < 8; i++ {
		ctr[i] = byte(nonce >> (8 * i))
	}
	for blk := 0; blk*16 < len(data); blk++ {
		for i := 0; i < 8; i++ {
			ctr[8+i] = byte(uint64(blk) >> (8 * i))
		}
		if err := EncryptBlock(schedule, ks[:], ctr[:]); err != nil {
			return err
		}
		for i := 0; i < 16 && blk*16+i < len(data); i++ {
			data[blk*16+i] ^= ks[i]
		}
	}
	return nil
}
