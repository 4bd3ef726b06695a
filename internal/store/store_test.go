package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// testVal derives a deterministic value from its key, so any read can
// be verified against the key alone.
func testVal(key string, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = key[i%len(key)] ^ byte(i)
	}
	return out
}

func testKey(i int) string { return fmt.Sprintf("%064d", i) }

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	for i := 0; i < 100; i++ {
		k := testKey(i)
		if err := s.Put(k, testVal(k, 50+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := testKey(i)
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(v, testVal(k, 50+i)) {
			t.Fatalf("Get(%s): wrong bytes", k)
		}
	}
	if _, ok, _ := s.Get(testKey(999)); ok {
		t.Fatal("absent key reported present")
	}
	st := s.Stats()
	if st.Records != 100 || st.Puts != 100 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	k := testKey(1)
	if err := s.Put(k, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().DiskBytes
	if err := s.Put(k, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DiskBytes != before || st.DupPuts != 1 {
		t.Fatalf("duplicate put changed the store: %+v", st)
	}
}

// TestRestartByteIdentical is the persistence contract: everything put
// before a clean close is served byte-identically by a reopened store.
func TestRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, SegmentBytes: 1024} // force several segments
	s := mustOpen(t, opt)
	want := map[string][]byte{}
	for i := 0; i < 200; i++ {
		k := testKey(i)
		v := testVal(k, 30+i%90)
		want[k] = v
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, opt)
	if got := s2.Stats().Records; got != len(want) {
		t.Fatalf("reopened store has %d records, want %d", got, len(want))
	}
	for k, v := range want {
		got, ok, err := s2.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s) after restart: ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) after restart: bytes differ", k)
		}
	}
}

// corruptTail appends garbage to the newest segment file — exactly the
// state a kill during the append write(2) leaves behind.
func corruptTail(t *testing.T, dir string, tail []byte) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(seqs))
	}
	path := segPath(dir, seqs[len(seqs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTornTailRecovery: a crash mid-append leaves a half-written
// record; Open must truncate it, keep every earlier record, and leave
// the store appendable.
func TestTornTailRecovery(t *testing.T) {
	for name, tail := range map[string][]byte{
		"partial-header": append([]byte(magic), 0x01, 0x02),
		"torn-value": func() []byte {
			// Well-formed header claiming more value bytes than exist.
			b := make([]byte, headerSize+64+10)
			copy(b, magic)
			binary.LittleEndian.PutUint32(b[8:12], 64)
			binary.LittleEndian.PutUint32(b[12:16], 4000)
			copy(b[headerSize:], testKey(777))
			return b
		}(),
		"bad-crc": func() []byte {
			b := make([]byte, headerSize+64+8)
			copy(b, magic)
			binary.LittleEndian.PutUint32(b[4:8], 0xdeadbeef)
			binary.LittleEndian.PutUint32(b[8:12], 64)
			binary.LittleEndian.PutUint32(b[12:16], 8)
			copy(b[headerSize:], testKey(778))
			return b
		}(),
		"wrong-magic": []byte("XXXXjunkjunkjunkjunkjunk"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{Dir: dir}
			s := mustOpen(t, opt)
			for i := 0; i < 20; i++ {
				k := testKey(i)
				if err := s.Put(k, testVal(k, 40)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			goodSize := fileSize(t, segPath(dir, 1))
			path := corruptTail(t, dir, tail)

			s2 := mustOpen(t, opt)
			st := s2.Stats()
			if st.Records != 20 {
				t.Fatalf("recovered %d records, want 20", st.Records)
			}
			if st.RecoveredBytes != int64(len(tail)) {
				t.Fatalf("recovered %d torn bytes, want %d", st.RecoveredBytes, len(tail))
			}
			if got := fileSize(t, path); got != goodSize {
				t.Fatalf("segment not truncated: %d bytes, want %d", got, goodSize)
			}
			for i := 0; i < 20; i++ {
				k := testKey(i)
				v, ok, err := s2.Get(k)
				if err != nil || !ok || !bytes.Equal(v, testVal(k, 40)) {
					t.Fatalf("record %d damaged by recovery (ok=%v err=%v)", i, ok, err)
				}
			}
			// The truncated store accepts and persists new appends.
			k := testKey(555)
			if err := s2.Put(k, testVal(k, 16)); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s2.Get(k); !ok || !bytes.Equal(v, testVal(k, 16)) {
				t.Fatal("post-recovery append unreadable")
			}
		})
	}
}

// FuzzStoreReplay feeds arbitrary bytes to Open as the only segment.
// Whatever the bytes, Open succeeds and truncates the file to the
// valid prefix it reports, and that prefix is stable: a second Open
// recovers nothing, indexes every key the first one did with the same
// bytes, and serves a record appended in between.
func FuzzStoreReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	var recLen []int
	for i := 0; i < 3; i++ {
		k := testKey(i)
		v := testVal(k, 20+i)
		if err := s.Put(k, v); err != nil {
			f.Fatal(err)
		}
		recLen = append(recLen, headerSize+len(k)+len(v))
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	badMid := bytes.Clone(valid)
	badMid[recLen[0]+headerSize+len(testKey(1))] ^= 0x01 // first value byte of record 2
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(badMid)
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		path := segPath(dir, 1)
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { _ = s.Close() })
		if got, want := fileSize(t, path), int64(len(seg))-s.Stats().RecoveredBytes; got != want {
			t.Fatalf("segment is %d bytes after Open, want %d", got, want)
		}
		want := make(map[string][]byte, len(s.index)+1)
		for k := range s.index {
			v, ok, err := s.Get(k)
			if err != nil || !ok {
				t.Fatalf("Get(%q): ok=%v err=%v", k, ok, err)
			}
			want[k] = v
		}
		var put string
		for i := 0; put == ""; i++ {
			if _, ok := s.index[testKey(i)]; !ok {
				put = testKey(i)
			}
		}
		want[put] = testVal(put, 33)
		if err := s.Put(put, want[put]); err != nil {
			t.Fatalf("Put after replay: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := mustOpen(t, Options{Dir: dir})
		st := s2.Stats()
		if st.RecoveredBytes != 0 || st.Records != len(want) {
			t.Fatalf("reopen: recovered %d bytes, %d records; want 0 and %d", st.RecoveredBytes, st.Records, len(want))
		}
		for k, v := range want {
			got, ok, err := s2.Get(k)
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("reopen: Get(%q) ok=%v err=%v, bytes equal=%v", k, ok, err, bytes.Equal(got, v))
			}
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSegmentEviction: exceeding MaxBytes drops whole LRU segments;
// recently read records survive, evicted keys read as misses (and can
// be re-put).
func TestSegmentEviction(t *testing.T) {
	dir := t.TempDir()
	// 180-byte records, 512-byte segments → 2 records per segment,
	// ~8 segments under the 4 KiB cap.
	s := mustOpen(t, Options{Dir: dir, SegmentBytes: 512, MaxBytes: 4096})
	var keys []string
	protected := testKey(2) // lives in segment 2; segment 1 is never touched
	for i := 0; ; i++ {
		k := testKey(i)
		keys = append(keys, k)
		if err := s.Put(k, testVal(k, 100)); err != nil {
			t.Fatal(err)
		}
		if i >= 3 {
			// Touch the protected key every round: its segment must
			// never be the LRU victim while colder segments exist.
			if _, ok, _ := s.Get(protected); !ok {
				t.Fatalf("protected key evicted ahead of colder segments (i=%d)", i)
			}
		}
		if s.Stats().SegmentsEvicted >= 3 {
			break
		}
		if i > 300 {
			t.Fatal("no eviction after 300 puts over an 8-segment cap")
		}
	}
	st := s.Stats()
	if st.SegmentsEvicted < 3 || st.RecordsEvicted == 0 {
		t.Fatalf("no eviction recorded: %+v", st)
	}
	// The untouched oldest segment was evicted; its keys are misses.
	if _, ok, _ := s.Get(keys[0]); ok {
		t.Fatal("cold segment-1 key survived three evictions")
	}
	if st.DiskBytes > 4096+512 {
		t.Fatalf("disk usage %d far above cap", st.DiskBytes)
	}
	// Resident keys still verify; evicted keys are clean misses that
	// can be re-put (recompute-and-reappend is the contract).
	hit, miss := 0, 0
	for _, k := range keys {
		v, ok, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hit++
			if !bytes.Equal(v, testVal(k, 100)) {
				t.Fatalf("resident key %s has wrong bytes", k)
			}
		} else {
			miss++
			if err := s.Put(k, testVal(k, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hit == 0 || miss == 0 {
		t.Fatalf("eviction test degenerate: hit=%d miss=%d", hit, miss)
	}
}

// TestEvictionUnderConcurrentRead hammers Get from many goroutines
// while Puts force continuous segment eviction; run under -race in CI.
// Every read must return either a miss or the exact bytes for its key.
func TestEvictionUnderConcurrentRead(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 1024, MaxBytes: 8192})
	const keySpace = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := testKey(rng.Intn(keySpace))
				v, ok, err := s.Get(k)
				if err != nil {
					t.Errorf("Get(%s): %v", k, err)
					return
				}
				if ok && !bytes.Equal(v, testVal(k, 64)) {
					t.Errorf("Get(%s): wrong bytes under eviction", k)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < keySpace; i++ {
			k := testKey(i)
			if err := s.Put(k, testVal(k, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if s.Stats().SegmentsEvicted == 0 {
		t.Fatal("workload did not exercise eviction")
	}
}

// TestHotMapBounded: the store keeps no values in memory. Every hit is
// a disk read into a fresh slice, so HotHits stays 0, and neither the
// slice handed to Put nor one returned by Get aliases what the next Get
// returns.
func TestHotMapBounded(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	const keys, reads = 50, 3
	for i := 0; i < keys; i++ {
		k := testKey(i)
		v := testVal(k, 100)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		v[0] ^= 0xff // the caller reuses its buffer after Put
	}
	for r := 0; r < reads; r++ {
		for i := 0; i < keys; i++ {
			k := testKey(i)
			v, ok, err := s.Get(k)
			if err != nil || !ok {
				t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
			}
			if !bytes.Equal(v, testVal(k, 100)) {
				t.Fatalf("Get(%s) read %d: bytes differ from what was put", k, r)
			}
			v[0] ^= 0xff // the caller owns what Get returned
		}
	}
	st := s.Stats()
	if st.HotHits != 0 || st.DiskHits != keys*reads || st.Gets != keys*reads {
		t.Fatalf("hot_hits=%d disk_hits=%d gets=%d, want 0, %d, %d",
			st.HotHits, st.DiskHits, st.Gets, keys*reads, keys*reads)
	}
}

// TestNonSegmentFilesIgnored: stray files in the directory don't break
// Open, and a name that parses to a segment number without being that
// segment's file name is not a segment: Open reads each real segment
// once and never looks for a file that is not there.
func TestNonSegmentFilesIgnored(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stray   []string
		withSeg bool // a real seg-0000000001.vbs holding one record
	}{
		{"other-files", []string{"README", "seg-bogus.vbs"}, false},
		{"unpadded-alone", []string{"seg-1.vbs"}, false},
		{"padded-twin", []string{"seg-01.vbs"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var realSize int64
			if tc.withSeg {
				s := mustOpen(t, Options{Dir: dir})
				if err := s.Put(testKey(0), testVal(testKey(0), 40)); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				realSize = fileSize(t, segPath(dir, 1))
			}
			for _, name := range tc.stray {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s := mustOpen(t, Options{Dir: dir})
			st := s.Stats()
			if st.Segments != 1 || st.DiskBytes != realSize {
				t.Fatalf("segments=%d disk_bytes=%d, want 1 and %d", st.Segments, st.DiskBytes, realSize)
			}
			if err := s.Put(testKey(1), []byte("v")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClosedStore(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("k"); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := s.Put(testKey(1), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
