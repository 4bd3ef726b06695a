package aes

import (
	"bytes"
	"testing"

	"repro/internal/xrand"
)

func TestFindKeySchedulesExact(t *testing.T) {
	r := xrand.New(21)
	image := make([]byte, 32*1024)
	r.Bytes(image)
	key := []byte("findable aes key")
	sched, _ := ExpandKey128(key)
	const plantAt = 12345
	copy(image[plantAt:], sched)

	hits := FindKeySchedules(image, 0)
	if len(hits) != 1 {
		t.Fatalf("hits = %d, want exactly 1", len(hits))
	}
	if hits[0].Offset != plantAt || !bytes.Equal(hits[0].Key, key) || hits[0].MismatchedBytes != 0 {
		t.Fatalf("hit = %+v", hits[0])
	}
}

func TestFindKeySchedulesMultiple(t *testing.T) {
	image := make([]byte, 8*1024)
	xrand.New(22).Bytes(image)
	keys := [][]byte{
		[]byte("key number one.."),
		[]byte("key number two.."),
	}
	offsets := []int{100, 4000}
	for i, k := range keys {
		sched, _ := ExpandKey128(k)
		copy(image[offsets[i]:], sched)
	}
	hits := FindKeySchedules(image, 0)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	for i, h := range hits {
		if h.Offset != offsets[i] || !bytes.Equal(h.Key, keys[i]) {
			t.Fatalf("hit %d = %+v", i, h)
		}
	}
}

func TestFindKeySchedulesNoFalsePositives(t *testing.T) {
	image := make([]byte, 256*1024)
	xrand.New(23).Bytes(image)
	if hits := FindKeySchedules(image, 0); len(hits) != 0 {
		t.Fatalf("false positives in random data: %+v", hits)
	}
	// Zero-filled memory must not match either (all-zero key expands to a
	// schedule that is NOT all zeros).
	zero := make([]byte, 64*1024)
	if hits := FindKeySchedules(zero, 0); len(hits) != 0 {
		t.Fatalf("false positives in zero data: %+v", hits)
	}
}

func TestFindKeySchedulesWithCorruption(t *testing.T) {
	image := make([]byte, 4096)
	xrand.New(24).Bytes(image)
	key := []byte("slightly damaged")
	sched, _ := ExpandKey128(key)
	copy(image[777:], sched)
	// Corrupt three schedule bytes beyond the key itself.
	image[777+40] ^= 0xFF
	image[777+90] ^= 0x0F
	image[777+170] ^= 0x80

	if hits := FindKeySchedules(image, 0); len(hits) != 0 {
		t.Fatal("exact scan should miss the corrupted schedule")
	}
	hits := FindKeySchedules(image, 3)
	if len(hits) != 1 || !bytes.Equal(hits[0].Key, key) || hits[0].MismatchedBytes != 3 {
		t.Fatalf("tolerant scan: %+v", hits)
	}
}

func TestFindKeySchedulesDecayed(t *testing.T) {
	r := xrand.New(25)
	image := make([]byte, 4096)
	// Background: ground-state (decayed-to-zero) memory with sparse
	// survivors, like a real cold-booted region.
	for i := range image {
		if r.Bernoulli(0.1) {
			image[i] = byte(r.Uint64())
		}
	}
	key := make([]byte, 16)
	r.Bytes(key)
	sched, _ := ExpandKey128(key)
	decayed := decaySchedule(sched, 0x00, 0.08, r)
	copy(image[2048:], decayed)

	hits := FindKeySchedulesDecayed(image, 0x00, 0.3, DefaultReconstructConfig(0x00))
	found := false
	for _, h := range hits {
		if h.Offset == 2048 && bytes.Equal(h.Key, key) {
			found = true
		}
	}
	if !found {
		t.Fatalf("decayed schedule not found; hits = %+v", hits)
	}
}

func BenchmarkFindKeySchedules32KB(b *testing.B) {
	image := make([]byte, 32*1024)
	xrand.New(26).Bytes(image)
	sched, _ := ExpandKey128([]byte("benchmark key 16"))
	copy(image[9000:], sched)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := FindKeySchedules(image, 0); len(hits) != 1 {
			b.Fatal("scan failed")
		}
	}
}

// FindKeySchedulesDecayed scans an image that suffered unidirectional
// decay toward ground (a cold-booted DRAM dump): windows are accepted
// when every schedule byte is decay-compatible and the implied decay
// fraction stays below maxDecayFraction. The reported key is the
// *reconstructed* one when the window's round key 0 itself decayed.
// Only TestFindKeySchedulesDecayed calls it: the cold boot contrast
// reconstructs from a known window with ReconstructKey128 instead.
func FindKeySchedulesDecayed(image []byte, ground byte, maxDecayFraction float64, cfg ReconstructConfig) []FoundKey {
	// A real schedule is ~50% set bits; unidirectional decay below
	// maxDecayFraction cannot push it under this floor. The density gate
	// rejects the vast ground-state background (where every
	// decay-compatibility check is vacuously true) before any expensive
	// reconstruction probes run.
	minBits := int(float64(ScheduleSize128*8) * 0.5 * (1 - maxDecayFraction) * 0.7)
	windowBits := 0
	countBits := func(b byte) int { return popcount(b) }
	for i := 0; i < ScheduleSize128 && i < len(image); i++ {
		windowBits += countBits(image[i] ^ ground)
	}

	var out []FoundKey
	for off := 0; off+ScheduleSize128 <= len(image); off++ {
		w := image[off : off+ScheduleSize128]
		densityOK := windowBits >= minBits
		// Slide the density window for the next iteration regardless of
		// the outcome below.
		if off+ScheduleSize128 < len(image) {
			windowBits += countBits(image[off+ScheduleSize128]^ground) - countBits(w[0]^ground)
		}
		if !densityOK {
			continue
		}
		// Cheap prefilter: the exact recurrence rarely survives decay, so
		// instead require decay-compatibility of the first round words
		// derived from the observed key bytes. This is weaker than the
		// exact check but still rejects almost all random windows.
		v0 := w[0] ^ sbox[w[13]] ^ rcon[1]
		v1 := w[1] ^ sbox[w[14]]
		if !DecayedByteCompatible(v0, w[16], ground) || !DecayedByteCompatible(v1, w[17], ground) {
			continue
		}
		// Full check via reconstruction; bail out quickly on junk by
		// capping nodes.
		probe := cfg
		if probe.MaxNodes <= 0 || probe.MaxNodes > 500_000 {
			probe.MaxNodes = 500_000
		}
		probe.Ground = ground
		key, err := ReconstructKey128(w, probe)
		if err != nil {
			continue
		}
		sched, _ := ExpandKey128(key)
		mismatch := 0
		for i := range sched {
			if sched[i] != w[i] {
				mismatch++
			}
		}
		if float64(mismatch)/float64(ScheduleSize128) > maxDecayFraction {
			continue
		}
		out = append(out, FoundKey{Offset: off, Key: key, MismatchedBytes: mismatch})
	}
	return out
}
