package aes

// This file implements the classic "aeskeyfind"-style scan used in cold
// boot forensics and in §6.1 step 4's post-processing: slide a window
// over a raw memory image and flag positions where the bytes satisfy the
// AES key-schedule recurrence. Because an expanded schedule is 11× the
// key size and fully determined by its first 16 bytes, a schedule in a
// memory dump is self-authenticating — the attacker needs no idea where
// the victim's allocator put it.

// FoundKey is one key-schedule hit in a scanned image.
type FoundKey struct {
	// Offset is the byte position of round key 0 (the master key).
	Offset int
	// Key is the 16-byte master key.
	Key []byte
	// MismatchedBytes counts schedule bytes that disagreed with the
	// expansion (0 for a pristine image; small for a lightly corrupted
	// one).
	MismatchedBytes int
}

// FindKeySchedules scans image for AES-128 key schedules, tolerating up
// to maxErrors mismatched bytes across each 176-byte window (use 0 for
// Volt Boot dumps — they are exact; a few for decayed DRAM images).
// Windows are checked at every byte offset.
func FindKeySchedules(image []byte, maxErrors int) []FoundKey {
	if maxErrors < 0 {
		maxErrors = 0
	}
	var out []FoundKey
	for off := 0; off+ScheduleSize128 <= len(image); off++ {
		if !plausibleKeyWindow(image[off : off+ScheduleSize128]) {
			continue
		}
		sched, err := ExpandKey128(image[off : off+16])
		if err != nil {
			continue
		}
		mismatch := 0
		ok := true
		for i := 16; i < ScheduleSize128; i++ {
			if sched[i] != image[off+i] {
				mismatch++
				if mismatch > maxErrors {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, FoundKey{
				Offset:          off,
				Key:             append([]byte(nil), image[off:off+16]...),
				MismatchedBytes: mismatch,
			})
		}
	}
	return out
}

// plausibleKeyWindow cheaply rejects windows that cannot be a schedule:
// the round-1 recurrence must hold on the first word before we pay for a
// full expansion. This keeps the scan linear in practice.
func plausibleKeyWindow(w []byte) bool {
	// w4[0] = w0[0] ^ sbox(w3[1]) ^ rcon[1]
	if w[16] != w[0]^sbox[w[13]]^rcon[1] {
		return false
	}
	// w4[1] = w0[1] ^ sbox(w3[2])
	if w[17] != w[1]^sbox[w[14]] {
		return false
	}
	return true
}
