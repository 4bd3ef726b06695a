package store

import (
	"fmt"
	"testing"
)

// BenchmarkStoreGet measures a repeated read of one key: an index
// lookup plus a ReadAt of the record from its segment into a fresh
// slice. Repeat reads of a key are normally served by the campaign
// memory tier before the store sees them; this is the store's own cost.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := testKey(1)
	val := testVal(key, 512)
	if err := s.Put(key, val); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := s.Get(key)
		if err != nil || !ok || len(v) != 512 {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStoreGetDisk measures reads spread over 1024 keys, each an
// index lookup plus a ReadAt on its segment file.
func BenchmarkStoreGetDisk(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const keys = 1024
	for i := 0; i < keys; i++ {
		k := testKey(i)
		if err := s.Put(k, testVal(k, 512)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := testKey(i % keys)
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStorePut measures the append path with distinct keys (the
// content-addressed store never rewrites an existing key).
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), MaxBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := testVal(testKey(0), 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("%064d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}
