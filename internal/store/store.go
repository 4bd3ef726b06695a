// Package store is the disk layer of the campaign result cache: a
// crash-safe, append-only, content-addressed record store. It persists
// the campaign service's SHA-256(name, seed, canonical-params) result
// records across process restarts, so a warm fleet never re-pays
// simulation time for a key it has already computed.
//
// # Layout
//
// A store is a directory of numbered segment files (seg-0000000001.vbs,
// seg-0000000002.vbs, …). A segment is a flat sequence of records:
//
//	offset  0  magic  "vbr1" (4 bytes)
//	offset  4  crc    CRC-32C (Castagnoli) over bytes 8 … end of record
//	offset  8  klen   uint32 little-endian
//	offset 12  vlen   uint32 little-endian
//	offset 16  key    klen bytes
//	…          value  vlen bytes
//
// Every Put appends one encoded record with a single write(2) to the
// active segment; when the active segment would exceed SegmentBytes it
// is sealed and a new one is opened. Records are immutable: the store
// is content-addressed, so a key that is already indexed is never
// rewritten (same key ⇒ same bytes, by construction of the key).
//
// # Crash safety
//
// A crash can only ever damage the tail of the active segment (appends
// are the sole mutation). Open replays every segment in order,
// verifying magic and checksum record by record, and truncates a
// segment at the first invalid record — a torn half-written tail is
// discarded, every earlier record survives, and the in-memory index is
// rebuilt from what remains. There is no separate index file to go
// stale: the segments are the truth.
//
// # Eviction
//
// The store is size-capped (MaxBytes). Eviction is LRU at segment
// granularity: each segment carries a logical last-use clock bumped by
// every read it serves, and when the cap is exceeded the
// least-recently-used sealed segment is dropped whole — file removed,
// its index entries unlinked. Evicting whole segments keeps the disk
// bound tight without ever rewriting data (there is no compaction;
// records lost to eviction are simply recomputed and re-appended on
// next use).
//
// # Memory
//
// The store keeps only its index in memory. Every Get reads the record
// from its segment into a fresh slice; the campaign layer's memory tier
// sits in front and serves repeat reads of a key without coming here.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	magic      = "vbr1"
	headerSize = 16
	// maxKeyLen bounds klen during recovery scans: a corrupt length
	// field must not drive a giant allocation. Cache keys are 64 hex
	// chars; anything near this bound is garbage.
	maxKeyLen = 4096
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configures a Store. Zero values select the defaults.
type Options struct {
	// Dir is the segment directory (created if missing). Required.
	Dir string
	// SegmentBytes caps one segment file (default 8 MiB). The active
	// segment seals when an append would exceed it.
	SegmentBytes int64
	// MaxBytes caps total on-disk size (default 1 GiB). Exceeding it
	// evicts least-recently-used sealed segments whole.
	MaxBytes int64
	// Sync fsyncs the active segment after every Put. Off by default:
	// the worst a lost page buys is recomputing a deterministic result.
	Sync bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 8 << 20
	}
	if out.MaxBytes <= 0 {
		out.MaxBytes = 1 << 30
	}
	return out
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Records   int   `json:"records"`
	Segments  int   `json:"segments"`
	DiskBytes int64 `json:"disk_bytes"`

	Gets uint64 `json:"gets"`
	// HotHits is always 0: the store has no memory tier of its own, and
	// every hit is a DiskHits. The field stays until the benchmark drops
	// the store.hot_hits metric that reads it.
	HotHits         uint64 `json:"hot_hits"`
	DiskHits        uint64 `json:"disk_hits"`
	Misses          uint64 `json:"misses"`
	Puts            uint64 `json:"puts"`
	DupPuts         uint64 `json:"dup_puts"`
	SegmentsEvicted uint64 `json:"segments_evicted"`
	RecordsEvicted  uint64 `json:"records_evicted"`
	// RecoveredBytes counts torn-tail bytes truncated by Open.
	RecoveredBytes int64 `json:"recovered_bytes"`
}

// segment is one on-disk file. lastUse is a logical clock (bumped per
// read served), which is what segment-LRU eviction orders by.
type segment struct {
	seq     uint64
	path    string
	f       *os.File
	size    int64
	keys    []string // keys whose latest record lives here
	lastUse uint64
}

// recLoc locates one record's value bytes.
type recLoc struct {
	seg  *segment
	off  int64 // value offset within the segment
	vlen uint32
}

// Store is a disk-backed content-addressed record store. All methods
// are safe for concurrent use.
type Store struct {
	opt Options

	mu     sync.Mutex
	closed bool
	segs   []*segment // ascending seq; last is the active segment
	index  map[string]recLoc
	disk   int64  // sum of segment sizes
	clock  uint64 // logical LRU clock
	putBuf []byte

	stats Stats
}

// Open opens (or creates) the store rooted at opt.Dir, replaying every
// segment to rebuild the index and truncating any torn tail left by a
// crash mid-append.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	o := opt.withDefaults()
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{opt: o, index: make(map[string]recLoc)}
	names, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range names {
		seg, err := s.openSegment(seq)
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		s.disk += seg.size
	}
	if len(s.segs) == 0 {
		seg, err := s.createSegment(1)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	return s, nil
}

// listSegments returns the segment sequence numbers present in dir, in
// ascending order. Files not named exactly as segPath names them are
// ignored: a stray "seg-1.vbs" would otherwise make Open look for
// seg-0000000001.vbs, and a "seg-01.vbs" beside it would open that
// segment twice.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".vbs") {
			continue
		}
		seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
		if err != nil || name != filepath.Base(segPath(dir, seq)) {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%010d.vbs", seq))
}

// openSegment opens an existing segment, replays its records into the
// index, and truncates the file at the first invalid record.
func (s *Store) openSegment(seq uint64) (*segment, error) {
	path := segPath(s.opt.Dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{seq: seq, path: path, f: f}
	valid, err := s.replay(seg)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if fi.Size() > valid {
		// Torn tail from a crash mid-append: discard it. Everything
		// before the tear has a verified checksum and stays.
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		s.stats.RecoveredBytes += fi.Size() - valid
	}
	seg.size = valid
	return seg, nil
}

// replay scans seg's records, indexing each valid one (later segments
// and later records win), and returns the offset of the first invalid
// byte — the file's valid prefix length.
func (s *Store) replay(seg *segment) (int64, error) {
	fi, err := seg.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	fileSize := fi.Size()
	r := io.NewSectionReader(seg.f, 0, fileSize)
	var off int64
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return off, nil // clean EOF or torn header: valid prefix ends here
		}
		if string(hdr[0:4]) != magic {
			return off, nil
		}
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		klen := binary.LittleEndian.Uint32(hdr[8:12])
		vlen := binary.LittleEndian.Uint32(hdr[12:16])
		// A corrupt length field must neither drive a giant allocation
		// nor walk past the file: the record must fit what is on disk.
		if klen == 0 || klen > maxKeyLen ||
			off+headerSize+int64(klen)+int64(vlen) > fileSize {
			return off, nil
		}
		body := make([]byte, int(klen)+int(vlen))
		if _, err := io.ReadFull(r, body); err != nil {
			return off, nil
		}
		sum := crc32.Checksum(hdr[8:16], crcTable)
		sum = crc32.Update(sum, crcTable, body)
		if sum != crc {
			return off, nil
		}
		key := string(body[:klen])
		s.index[key] = recLoc{seg: seg, off: off + headerSize + int64(klen), vlen: vlen}
		seg.keys = append(seg.keys, key)
		off += headerSize + int64(klen) + int64(vlen)
	}
}

func (s *Store) createSegment(seq uint64) (*segment, error) {
	path := segPath(s.opt.Dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &segment{seq: seq, path: path, f: f}, nil
}

// Get returns the record bytes for key, read from its segment into a
// fresh slice that belongs to the caller.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	s.stats.Gets++
	s.clock++
	loc, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return nil, false, nil
	}
	val := make([]byte, loc.vlen)
	if _, err := loc.seg.f.ReadAt(val, loc.off); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", loc.seg.path, err)
	}
	loc.seg.lastUse = s.clock
	s.stats.DiskHits++
	return val, true, nil
}

// Put appends one record. A key that is already indexed is a no-op:
// the store is content-addressed, so the bytes are the same by
// construction.
func (s *Store) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: invalid key length %d", len(key))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[key]; ok {
		s.stats.DupPuts++
		return nil
	}
	recLen := int64(headerSize + len(key) + len(val))
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+recLen > s.opt.SegmentBytes {
		next, err := s.createSegment(active.seq + 1)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, next)
		active = next
	}

	if cap(s.putBuf) < int(recLen) {
		s.putBuf = make([]byte, 0, recLen)
	}
	buf := s.putBuf[:recLen]
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(val)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], val)
	sum := crc32.Checksum(buf[8:], crcTable)
	binary.LittleEndian.PutUint32(buf[4:8], sum)

	n, err := active.f.WriteAt(buf, active.size)
	if err != nil {
		// A partial append is exactly the torn tail Open recovers from;
		// truncate it away now so in-process readers never see it.
		_ = active.f.Truncate(active.size)
		return fmt.Errorf("store: append (wrote %d/%d): %w", n, recLen, err)
	}
	if s.opt.Sync {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.clock++
	s.index[key] = recLoc{seg: active, off: active.size + headerSize + int64(len(key)), vlen: uint32(len(val))}
	active.keys = append(active.keys, key)
	active.size += recLen
	active.lastUse = s.clock
	s.disk += recLen
	s.stats.Puts++
	s.evictLocked()
	return nil
}

// evictLocked drops least-recently-used sealed segments until the disk
// cap is met. The active segment is never evicted.
func (s *Store) evictLocked() {
	for s.disk > s.opt.MaxBytes && len(s.segs) > 1 {
		victim := 0
		for i := 0; i < len(s.segs)-1; i++ { // exclude the active segment
			if s.segs[i].lastUse < s.segs[victim].lastUse {
				victim = i
			}
		}
		seg := s.segs[victim]
		for _, k := range seg.keys {
			if loc, ok := s.index[k]; ok && loc.seg == seg {
				delete(s.index, k)
				s.stats.RecordsEvicted++
			}
		}
		s.segs = append(s.segs[:victim], s.segs[victim+1:]...)
		s.disk -= seg.size
		_ = seg.f.Close()
		_ = os.Remove(seg.path)
		s.stats.SegmentsEvicted++
	}
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.segs[len(s.segs)-1].f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.Segments = len(s.segs)
	st.DiskBytes = s.disk
	return st
}

// Close syncs and closes every segment. Further operations return
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.segs[len(s.segs)-1].f.Sync()
	s.closeLocked()
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

func (s *Store) closeLocked() {
	for _, seg := range s.segs {
		_ = seg.f.Close()
	}
	s.closed = true
}
