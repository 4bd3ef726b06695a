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
