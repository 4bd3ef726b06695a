package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// flatBacking is a simple memory backing for cache tests.
type flatBacking struct {
	mem        map[uint64][]byte // line-addr -> line
	lineBytes  int
	readCount  int
	writeCount int
	failReads  bool
}

func newFlatBacking(lineBytes int) *flatBacking {
	return &flatBacking{mem: map[uint64][]byte{}, lineBytes: lineBytes}
}

func (f *flatBacking) ReadLine(addr uint64, buf []byte) error {
	if f.failReads {
		return fmt.Errorf("backing: injected read failure at %#x", addr)
	}
	f.readCount++
	if line, ok := f.mem[addr]; ok {
		copy(buf, line)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	return nil
}

func (f *flatBacking) WriteLine(addr uint64, buf []byte) error {
	f.writeCount++
	line := make([]byte, len(buf))
	copy(line, buf)
	f.mem[addr] = line
	return nil
}

func newTestCache(t testing.TB, cfg Config) (*Cache, *flatBacking, *sim.Env) {
	t.Helper()
	env := sim.NewEnv()
	back := newFlatBacking(cfg.LineBytes)
	c, err := New(env, cfg, 42, back)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Arrays() {
		a.SetRail(0.8)
	}
	// Power-up leaves random fingerprint bits in the tag RAM, so some
	// lines spuriously look valid — exactly like real hardware, which is
	// why boot code must invalidate caches before enabling them.
	c.InvalidateAll()
	c.SetEnabled(true)
	return c, back, env
}

// paperL1D matches the BCM2711 d-cache geometry the paper reports:
// 32KB, 2-way, 64B lines, 256 sets (Figure 3: WAY0 = 256×512b = 16KB).
func paperL1D() Config {
	return Config{Name: "L1D", SizeBytes: 32 * 1024, Ways: 2, LineBytes: 64}
}

func TestGeometry(t *testing.T) {
	cfg := paperL1D()
	if cfg.Sets() != 256 {
		t.Fatalf("sets = %d, want 256", cfg.Sets())
	}
	c, _, _ := newTestCache(t, cfg)
	if c.WayBytes() != 16*1024 {
		t.Fatalf("way bytes = %d, want 16KB", c.WayBytes())
	}
}

func TestConfigValidation(t *testing.T) {
	env := sim.NewEnv()
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 1, LineBytes: 64},
		{Name: "line", SizeBytes: 1024, Ways: 1, LineBytes: 12},
		{Name: "div", SizeBytes: 1000, Ways: 2, LineBytes: 64},
		{Name: "pow2", SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64},
	}
	for _, cfg := range bad {
		if _, err := New(env, cfg, 1, newFlatBacking(64)); err == nil {
			t.Errorf("config %q should be rejected", cfg.Name)
		}
	}
}

func TestReadAfterWriteThroughCache(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	addrs := []uint64{0, 8, 64, 0x1000, 0xFFF8, 0x12340}
	for i, a := range addrs {
		v := uint64(0x1111111111111111) * uint64(i+1)
		if _, err := c.Access(a, 8, true, v, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range addrs {
		v, err := c.Access(a, 8, false, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(0x1111111111111111) * uint64(i+1); v != want {
			t.Fatalf("addr %#x: got %#x want %#x", a, v, want)
		}
	}
}

func TestSubWordAccesses(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	if _, err := c.Access(0x100, 8, true, 0x8877665544332211, false); err != nil {
		t.Fatal(err)
	}
	b, _ := c.Access(0x100, 1, false, 0, false)
	if b != 0x11 {
		t.Fatalf("byte read = %#x", b)
	}
	w, _ := c.Access(0x104, 4, false, 0, false)
	if w != 0x88776655 {
		t.Fatalf("word read = %#x", w)
	}
	if _, err := c.Access(0x102, 2, true, 0xBEEF, false); err != nil {
		t.Fatal(err)
	}
	full, _ := c.Access(0x100, 8, false, 0, false)
	if full != 0x88776655BEEF2211 {
		t.Fatalf("after halfword store: %#x", full)
	}
}

func TestLineCrossingRejected(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	if _, err := c.Access(60, 8, false, 0, false); err == nil {
		t.Fatal("line-crossing access should fail")
	}
}

func TestMissFillHitCounters(t *testing.T) {
	c, back, _ := newTestCache(t, paperL1D())
	if _, err := c.Access(0x200, 8, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access(0x208, 8, false, 0, false); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if back.readCount != 1 {
		t.Fatalf("backing reads = %d, want 1", back.readCount)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 2 * 64, Ways: 2, LineBytes: 64} // 2 sets
	c, back, _ := newTestCache(t, cfg)
	// Three distinct lines mapping to set 0: addresses 0, 128, 256 (2 sets × 64B).
	if _, err := c.Access(0, 8, true, 0xA1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access(128, 8, true, 0xB2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access(256, 8, true, 0xC3, false); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected an eviction")
	}
	if back.writeCount == 0 {
		t.Fatal("dirty victim must be written back")
	}
	// The evicted value must be recoverable through the cache.
	v, err := c.Access(0, 8, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xA1 {
		t.Fatalf("reloaded evicted line = %#x, want 0xA1", v)
	}
}

func TestDisabledCacheBypasses(t *testing.T) {
	c, back, _ := newTestCache(t, paperL1D())
	c.SetEnabled(false)
	if _, err := c.Access(0x40, 8, true, 0xDD, false); err != nil {
		t.Fatal(err)
	}
	v, err := c.Access(0x40, 8, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDD {
		t.Fatalf("bypass read = %#x", v)
	}
	if c.Stats().Bypasses != 2 || c.Stats().Misses != 0 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	if len(back.mem) == 0 {
		t.Fatal("bypass write must reach backing")
	}
	// The cache RAMs must be untouched: no line became valid.
	for w := 0; w < 2; w++ {
		for s := 0; s < c.Config().Sets(); s++ {
			if c.Line(w, s).Valid {
				t.Fatal("bypass must not allocate")
			}
		}
	}
}

// The paper's central §5.2.4 fact: clean/invalidate clears valid bits but
// leaves data RAM contents in place, readable via RAMINDEX.
func TestInvalidateLeavesDataRAM(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	secret := uint64(0xDEADBEEFCAFEBABE)
	if _, err := c.Access(0x0, 8, true, secret, false); err != nil {
		t.Fatal(err)
	}
	if err := c.CleanInvalidateAll(); err != nil {
		t.Fatal(err)
	}
	// Architectural read misses (line invalid)...
	if c.Line(0, 0).Valid {
		t.Fatal("line still valid after clean/invalidate")
	}
	// ...but RAMINDEX still sees the secret.
	found := false
	for w := 0; w < 2; w++ {
		v, err := c.RAMIndexData(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v == secret {
			found = true
		}
	}
	if !found {
		t.Fatal("secret not visible via RAMINDEX after invalidate")
	}
}

func TestZVAErasesDataRAM(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	secret := uint64(0xDEADBEEFCAFEBABE)
	if _, err := c.Access(0x0, 8, true, secret, false); err != nil {
		t.Fatal(err)
	}
	if err := c.ZeroLineVA(0x0, false); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		v, _ := c.RAMIndexData(w, 0)
		if v == secret {
			t.Fatal("DC ZVA failed to erase the data RAM word")
		}
	}
}

func TestZVAWithCacheDisabledZeroesMemory(t *testing.T) {
	c, back, _ := newTestCache(t, paperL1D())
	c.SetEnabled(false)
	if _, err := c.Access(0x80, 8, true, 0x1234, false); err != nil {
		t.Fatal(err)
	}
	if err := c.ZeroLineVA(0x80, false); err != nil {
		t.Fatal(err)
	}
	v, _ := c.Access(0x80, 8, false, 0, false)
	if v != 0 {
		t.Fatalf("memory after uncached ZVA = %#x", v)
	}
	_ = back
}

func TestCleanInvalidateVA(t *testing.T) {
	c, back, _ := newTestCache(t, paperL1D())
	if _, err := c.Access(0x40, 8, true, 0x99, false); err != nil {
		t.Fatal(err)
	}
	if err := c.CleanInvalidateVA(0x40); err != nil {
		t.Fatal(err)
	}
	tag, set := 0, 1 // 0x40 is set 1 with 64B lines
	_ = tag
	if c.Line(0, set).Valid || c.Line(1, set).Valid {
		t.Fatal("line still valid after CIVAC")
	}
	if line, ok := back.mem[0x40]; !ok || line[0] != 0x99 {
		t.Fatal("CIVAC must write dirty data back")
	}
	// CIVAC of an uncached address is a no-op, not an error.
	if err := c.CleanInvalidateVA(0x9000); err != nil {
		t.Fatal(err)
	}
}

func TestWayLockingPreventsEviction(t *testing.T) {
	cfg := Config{Name: "lock", SizeBytes: 2 * 2 * 64, Ways: 2, LineBytes: 64}
	c, _, _ := newTestCache(t, cfg)
	// Install the CaSE-style secret in way 0 of set 0.
	if _, err := c.Access(0, 8, true, 0x5EC2E7, true); err != nil {
		t.Fatal(err)
	}
	c.LockWay(0, true)
	// Hammer set 0 with conflicting lines.
	for i := 1; i < 20; i++ {
		if _, err := c.Access(uint64(i*128), 8, false, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	li := c.Line(0, 0)
	if !li.Valid || li.Addr != 0 {
		t.Fatal("locked way was evicted")
	}
	v, _ := c.RAMIndexData(0, 0)
	if v != 0x5EC2E7 {
		t.Fatalf("locked secret = %#x", v)
	}
}

func TestAllWaysLockedFails(t *testing.T) {
	cfg := Config{Name: "lockall", SizeBytes: 2 * 2 * 64, Ways: 2, LineBytes: 64}
	c, _, _ := newTestCache(t, cfg)
	c.LockWay(0, true)
	c.LockWay(1, true)
	if _, err := c.Access(0, 8, false, 0, false); err == nil {
		t.Fatal("fill with all ways locked should fail")
	}
}

func TestSecureBitTracking(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	if _, err := c.Access(0x00, 8, true, 1, true); err != nil { // secure
		t.Fatal(err)
	}
	if _, err := c.Access(0x40, 8, true, 2, false); err != nil { // non-secure
		t.Fatal(err)
	}
	if li := c.Line(0, 0); li.NonSecure {
		t.Fatal("secure allocation marked NS")
	}
	if li := c.Line(0, 1); !li.NonSecure {
		t.Fatal("non-secure allocation not marked NS")
	}
	if !c.SecureLineAt(0, 0) {
		t.Fatal("SecureLineAt should flag the secure line")
	}
	if c.SecureLineAt(0, 64/8) {
		t.Fatal("SecureLineAt flagged a non-secure line")
	}
}

func TestRAMIndexBounds(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	if _, err := c.RAMIndexData(2, 0); err == nil {
		t.Fatal("way out of range should fail")
	}
	if _, err := c.RAMIndexData(0, c.WayBytes()/8); err == nil {
		t.Fatal("word index out of range should fail")
	}
	if _, err := c.RAMIndexTag(0, 256); err == nil {
		t.Fatal("tag set out of range should fail")
	}
}

func TestDumpWayMatchesRAMIndexSweep(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	for i := 0; i < 64; i++ {
		if _, err := c.Access(uint64(i*64), 8, true, uint64(i)|0xABCD0000, false); err != nil {
			t.Fatal(err)
		}
	}
	dump := c.DumpWay(0)
	for w := 0; w < len(dump)/8; w++ {
		v, err := c.RAMIndexData(0, w)
		if err != nil {
			t.Fatal(err)
		}
		var fromDump uint64
		for k := 0; k < 8; k++ {
			fromDump |= uint64(dump[w*8+k]) << (8 * k)
		}
		if v != fromDump {
			t.Fatalf("word %d: RAMINDEX %#x != dump %#x", w, v, fromDump)
		}
	}
}

func TestCacheAsBackingForInnerCache(t *testing.T) {
	env := sim.NewEnv()
	mem := newFlatBacking(64)
	l2, err := New(env, Config{Name: "L2", SizeBytes: 64 * 1024, Ways: 4, LineBytes: 64},
		7, mem)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := New(env, paperL1D(), 8, l2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cache{l1, l2} {
		for _, a := range c.Arrays() {
			a.SetRail(0.8)
		}
		c.SetEnabled(true)
	}
	if _, err := l1.Access(0x1234&^7, 8, true, 0xFEED, false); err != nil {
		t.Fatal(err)
	}
	// Flush L1 so the data lands in L2, then read through a fresh path.
	if err := l1.CleanInvalidateAll(); err != nil {
		t.Fatal(err)
	}
	v, err := l2.Access(0x1234&^7, 8, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFEED {
		t.Fatalf("L2 readback = %#x", v)
	}
}

// TestLineTransferGeometryRejected: as a backing, a cache moves only
// whole lines of its own size at line-aligned addresses. A 32-byte or a
// misaligned transfer is an error that touches neither the cache nor
// its backing, and an inner cache with shorter lines gets that error on
// its first miss.
func TestLineTransferGeometryRejected(t *testing.T) {
	c, back, _ := newTestCache(t, paperL1D())
	for _, tc := range []struct {
		name string
		addr uint64
		n    int
	}{
		{"32-byte line", 0x1000, 32},
		{"misaligned line", 0x1020, 64},
	} {
		buf := make([]byte, tc.n)
		if err := c.ReadLine(tc.addr, buf); err == nil {
			t.Errorf("%s: ReadLine succeeded", tc.name)
		}
		if err := c.WriteLine(tc.addr, buf); err == nil {
			t.Errorf("%s: WriteLine succeeded", tc.name)
		}
	}
	if st := c.Stats(); st != (Stats{}) || back.readCount != 0 || back.writeCount != 0 {
		t.Fatalf("rejected transfers touched the cache or its backing: stats %+v, backing reads %d writes %d",
			st, back.readCount, back.writeCount)
	}

	inner, err := New(sim.NewEnv(), Config{Name: "L1-32", SizeBytes: 8 * 1024, Ways: 2, LineBytes: 32}, 5, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range inner.Arrays() {
		a.SetRail(0.8)
	}
	inner.InvalidateAll()
	inner.SetEnabled(true)
	if _, err := inner.Access(0x2000, 8, false, 0, false); err == nil {
		t.Fatal("a 32-byte-line inner cache filled through a 64-byte-line cache")
	}
}

func TestBackingErrorPropagates(t *testing.T) {
	c, back, _ := newTestCache(t, paperL1D())
	back.failReads = true
	if _, err := c.Access(0, 8, false, 0, false); err == nil {
		t.Fatal("backing failure must propagate")
	}
}

// Property: any (addr, value) round-trips through the enabled cache.
func TestAccessRoundTripProperty(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	if err := quick.Check(func(addr uint32, v uint64) bool {
		a := uint64(addr) &^ 7
		if _, err := c.Access(a, 8, true, v, false); err != nil {
			return false
		}
		got, err := c.Access(a, 8, false, 0, false)
		return err == nil && got == v
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVictimTieBreakOrder pins the replacement tie-break: among unlocked
// ways with equal LRU timestamps the lowest way wins, and locks are
// honoured before recency. Guards the simplified single-condition scan.
func TestVictimTieBreakOrder(t *testing.T) {
	cfg := Config{Name: "ways4", SizeBytes: 4 * 4 * 64, Ways: 4, LineBytes: 64} // 4 sets
	c, _, _ := newTestCache(t, cfg)
	// Make every way of set 0 valid so the invalid-way shortcut is out of
	// play: four distinct lines mapping to set 0.
	for k := 0; k < 4; k++ {
		if _, err := c.Access(uint64(k)*4*64, 8, false, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// All timestamps equal: lowest unlocked way must win.
	for w := 0; w < 4; w++ {
		c.lastUse[w][0] = 7
	}
	if w, err := c.victim(0); err != nil || w != 0 {
		t.Fatalf("victim on all-tie = (%d, %v), want way 0", w, err)
	}
	c.LockWay(0, true)
	if w, err := c.victim(0); err != nil || w != 1 {
		t.Fatalf("victim with way0 locked = (%d, %v), want way 1", w, err)
	}
	// Partial tie: ways 2 and 3 older than 1; lowest of the tied pair wins.
	c.lastUse[1][0] = 9
	c.lastUse[2][0] = 3
	c.lastUse[3][0] = 3
	if w, err := c.victim(0); err != nil || w != 2 {
		t.Fatalf("victim on partial tie = (%d, %v), want way 2", w, err)
	}
	// Strictly older way wins regardless of position.
	c.lastUse[3][0] = 1
	if w, err := c.victim(0); err != nil || w != 3 {
		t.Fatalf("victim on strict LRU = (%d, %v), want way 3", w, err)
	}
	// Everything locked is an error.
	for w := 0; w < 4; w++ {
		c.LockWay(w, true)
	}
	if _, err := c.victim(0); err == nil {
		t.Fatal("victim with all ways locked must fail")
	}
}

// TestAccessHitPathAllocFree pins the 0 allocs/op contract on steady-state
// hits — the property the execution fast path is built on.
func TestAccessHitPathAllocFree(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		cfg := paperL1D()
		cfg.InlineECC = ecc
		c, _, _ := newTestCache(t, cfg)
		if _, err := c.Access(0, 8, true, 0x1122334455667788, false); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Access(0, 8, false, 0, false); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Access(8, 4, true, 0xABCD, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("InlineECC=%v: hit path allocates %.1f/op, want 0", ecc, allocs)
		}
	}
}

// TestLineTransferAllocFree pins 0 allocs/op on steady-state full-line
// transfers (the L1→L2 fill/writeback path).
func TestLineTransferAllocFree(t *testing.T) {
	c, _, _ := newTestCache(t, paperL1D())
	buf := make([]byte, 64)
	if err := c.WriteLine(0, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.ReadLine(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteLine(0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("line transfer hit path allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	c, _, _ := newTestCache(b, paperL1D())
	if _, err := c.Access(0, 8, true, 1, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Access(0, 8, false, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheAccessMiss(b *testing.B) {
	c, _, _ := newTestCache(b, paperL1D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Access(uint64(i)*64, 8, false, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func TestECCEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(w uint32) bool {
		return ECCDecodeWord(ECCEncodeWord(w)) == w
	}, nil); err != nil {
		t.Fatal(err)
	}
	// The scramble must actually change most words (zero is its own
	// encoding by construction).
	if ECCEncodeWord(0) != 0 {
		t.Fatal("zero word must encode to zero")
	}
	changed := 0
	for w := uint32(1); w < 4096; w++ {
		if ECCEncodeWord(w) != w {
			changed++
		}
	}
	if changed < 3000 {
		t.Fatalf("only %d/4095 words scrambled", changed)
	}
}

func TestInlineECCTransparentToSoftware(t *testing.T) {
	cfg := Config{Name: "ecc", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64, InlineECC: true}
	c, _, _ := newTestCache(t, cfg)
	// Read-after-write across sizes must behave exactly like a plain
	// cache from software's point of view.
	addrs := []uint64{0, 8, 0x104, 0x208}
	for i, a := range addrs {
		if _, err := c.Access(a, 8, true, 0x1111111111111111*uint64(i+1), false); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range addrs {
		v, err := c.Access(a, 8, false, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0x1111111111111111*uint64(i+1) {
			t.Fatalf("addr %#x: %#x", a, v)
		}
	}
	// Sub-word access inside a codeword.
	if _, err := c.Access(0x301, 1, true, 0xEE, false); err != nil {
		t.Fatal(err)
	}
	v, _ := c.Access(0x301, 1, false, 0, false)
	if v != 0xEE {
		t.Fatalf("byte readback = %#x", v)
	}
}

func TestInlineECCScramblesRawDump(t *testing.T) {
	cfg := Config{Name: "ecc", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64, InlineECC: true}
	c, _, _ := newTestCache(t, cfg)
	plain := uint64(0xA4000000A4000000) // two NOP-like words
	if _, err := c.Access(0, 8, true, plain, false); err != nil {
		t.Fatal(err)
	}
	// RAMINDEX sees the scrambled image, not the architectural value;
	// the allocated line lives in whichever way decoding recovers the
	// plain data from (the other way holds power-up noise).
	foundRaw, foundDecoded := false, false
	for w := 0; w < 2; w++ {
		raw, err := c.RAMIndexData(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if raw == plain {
			foundRaw = true
		}
		lo := ECCDecodeWord(uint32(raw))
		hi := ECCDecodeWord(uint32(raw >> 32))
		if uint64(lo)|uint64(hi)<<32 == plain {
			foundDecoded = true
		}
	}
	if foundRaw {
		t.Fatal("raw dump equals plain data despite InlineECC")
	}
	if !foundDecoded {
		t.Fatal("decoding the raw dump did not recover the plain data in either way")
	}
}

func TestInlineECCWritebackDecodes(t *testing.T) {
	cfg := Config{Name: "ecc", SizeBytes: 2 * 2 * 64, Ways: 2, LineBytes: 64, InlineECC: true}
	c, back, _ := newTestCache(t, cfg)
	if _, err := c.Access(0, 8, true, 0xFEEDFACE, false); err != nil {
		t.Fatal(err)
	}
	if err := c.CleanInvalidateAll(); err != nil {
		t.Fatal(err)
	}
	// The backing store must receive PLAIN data, not the scrambled image.
	line := back.mem[0]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(line[i]) << (8 * i)
	}
	if v != 0xFEEDFACE {
		t.Fatalf("writeback = %#x, want plain 0xFEEDFACE", v)
	}
}

// TestDataWritesBumpOnlyFetchedLines pins the content-generation contract
// the SoC's superblocks rely on: a data write — a store, an ECC store,
// or a full-line writeback from an inner cache — bumps the generation
// only if a block was read from its line (MarkFetched) since the last
// bump, and every bump clears all marks at once. A
// RestoreAux bumps only if the cache's arrays moved since the capture
// or the last restore, so one that rewinds nothing keeps the marks. A
// fill follows the data-write rule for the line it replaces: a fill
// into an unmarked slot leaves the generation alone, and a fill that
// evicts a marked line bumps it by one.
func TestDataWritesBumpOnlyFetchedLines(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		cfg := paperL1D()
		cfg.InlineECC = ecc
		c, _, _ := newTestCache(t, cfg)
		const code, data = 0x1000, 0x8000
		for _, a := range []uint64{code, data} {
			if _, err := c.Access(a, 8, false, 0, false); err != nil { // fill both lines
				t.Fatal(err)
			}
		}
		way, set, ok := c.ResidentWaySet(code)
		if !ok {
			t.Fatal("code line not resident after its fill")
		}
		line := make([]byte, cfg.LineBytes)
		writes := []struct {
			name  string
			write func(addr uint64) error
		}{
			{"store", func(a uint64) error { _, err := c.Access(a, 4, true, 0xD503201F, false); return err }},
			{"line writeback", func(a uint64) error { return c.WriteLine(a, line) }},
		}
		for _, w := range writes {
			c.MarkFetched(way, set)
			g := c.ContentGen()
			if err := w.write(data); err != nil {
				t.Fatal(err)
			}
			if c.ContentGen() != g {
				t.Errorf("ecc=%v: %s into a line nobody fetched from bumped the generation", ecc, w.name)
			}
			if err := w.write(code); err != nil {
				t.Fatal(err)
			}
			if c.ContentGen() != g+1 {
				t.Errorf("ecc=%v: %s into a fetched line moved the generation by %d, want 1", ecc, w.name, c.ContentGen()-g)
			}
			// The bump cleared the mark: the next write leaves it alone.
			if err := w.write(code); err != nil {
				t.Fatal(err)
			}
			if c.ContentGen() != g+1 {
				t.Errorf("ecc=%v: %s after a bump still sees the old mark", ecc, w.name)
			}
		}
		snap := c.CaptureAux()
		c.MarkFetched(way, set)
		g := c.ContentGen()
		c.RestoreAux(snap)
		if c.ContentGen() != g {
			t.Errorf("ecc=%v: a restore that rewound nothing moved the generation by %d", ecc, c.ContentGen()-g)
		}
		if _, err := c.Access(code, 8, true, 0, false); err != nil {
			t.Fatal(err)
		}
		if c.ContentGen() != g+1 {
			t.Errorf("ecc=%v: a restore that rewound nothing dropped a mark", ecc)
		}
		// A write into an unmarked line moves the arrays but not the
		// generation; the next restore bumps it and clears every mark.
		c.MarkFetched(way, set)
		g = c.ContentGen()
		if _, err := c.Access(data, 8, true, 0, false); err != nil {
			t.Fatal(err)
		}
		c.RestoreAux(snap)
		if c.ContentGen() != g+1 {
			t.Errorf("ecc=%v: a restore after a data write moved the generation by %d, want 1", ecc, c.ContentGen()-g)
		}
		g = c.ContentGen()
		if _, err := c.Access(code, 8, true, 0, false); err != nil {
			t.Fatal(err)
		}
		if c.ContentGen() != g {
			t.Errorf("ecc=%v: a mark survived a restore that bumped", ecc)
		}
		// The code line's set now holds it and one invalid way; the way
		// stride is 16 KiB, so code+16K and code+32K alias the set.
		c.MarkFetched(way, set)
		g = c.ContentGen()
		if _, err := c.Access(code+0x4000, 8, true, 0, false); err != nil { // write miss: fill
			t.Fatal(err)
		}
		if c.ContentGen() != g {
			t.Errorf("ecc=%v: a fill into an unmarked slot moved the generation by %d, want 0", ecc, c.ContentGen()-g)
		}
		if _, err := c.Access(code+0x8000, 8, false, 0, false); err != nil { // read miss: evicts the code line
			t.Fatal(err)
		}
		if _, _, ok := c.ResidentWaySet(code); ok {
			t.Fatalf("ecc=%v: the code line is still resident; the fill evicted another", ecc)
		}
		if c.ContentGen() != g+1 {
			t.Errorf("ecc=%v: a fill that evicted a fetched line moved the generation by %d, want 1", ecc, c.ContentGen()-g)
		}
	}
}

// TestFetchWordReadsLikeAHit pins the read the SoC's superblock builder
// takes its words with. After random fills, evictions and stores, at
// every word of every resident line, FetchWord must return what a
// 4-byte Access read there returns, inline ECC undone, and must count
// no hit and touch no LRU entry: the builder reads a block ahead of its
// run, and the run replays each hit as its instruction executes.
func TestFetchWordReadsLikeAHit(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		cfg := paperL1D()
		cfg.InlineECC = ecc
		c, back, _ := newTestCache(t, cfg)
		r := xrand.New(0xFE7C)
		for i := 0; i < 3*cfg.SizeBytes/cfg.LineBytes; i++ {
			addr := uint64(r.Intn(1<<20)) &^ uint64(cfg.LineBytes-1)
			if _, ok := back.mem[addr]; !ok {
				line := make([]byte, cfg.LineBytes)
				r.Bytes(line)
				back.mem[addr] = line
			}
			size := 1 << r.Intn(4)
			a := addr + uint64(size*r.Intn(cfg.LineBytes/size))
			if _, err := c.Access(a, size, r.Bool(), r.Uint64(), false); err != nil {
				t.Fatal(err)
			}
		}

		type word struct {
			addr uint64
			v    uint32
		}
		var words []word
		stats, tick := c.Stats(), c.useTick
		lastUse := make([][]uint64, len(c.lastUse))
		for w := range c.lastUse {
			lastUse[w] = slices.Clone(c.lastUse[w])
		}
		for w := 0; w < cfg.Ways; w++ {
			for set := 0; set < cfg.Sets(); set++ {
				li := c.Line(w, set)
				if !li.Valid {
					continue
				}
				for off := 0; off < cfg.LineBytes; off += 4 {
					a := li.Addr + uint64(off)
					words = append(words, word{a, c.FetchWord(w, set, a)})
				}
			}
		}
		if len(words) < cfg.SizeBytes/8 {
			t.Fatalf("ecc=%v: only %d words resident; the fills left the cache mostly empty", ecc, len(words))
		}
		if c.Stats() != stats || c.useTick != tick {
			t.Errorf("ecc=%v: FetchWord moved the stats to %+v (tick %d), from %+v (tick %d)", ecc, c.Stats(), c.useTick, stats, tick)
		}
		for w := range lastUse {
			if !slices.Equal(c.lastUse[w], lastUse[w]) {
				t.Errorf("ecc=%v: FetchWord touched LRU entries of way %d", ecc, w)
			}
		}
		for _, wd := range words {
			misses := c.Stats().Misses
			v, err := c.Access(wd.addr, 4, false, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if c.Stats().Misses != misses {
				t.Fatalf("ecc=%v: the read at %#x missed a resident line", ecc, wd.addr)
			}
			if uint32(v) != wd.v {
				t.Fatalf("ecc=%v: FetchWord at %#x = %#08x, a 4-byte read = %#08x", ecc, wd.addr, wd.v, uint32(v))
			}
		}
	}
}

// CleanInvalidateAll writes back every dirty line and clears all valid
// bits. Data RAM contents are untouched — the paper's key observation.
// The tests flush with it; the machine flushes line by line
// (CleanInvalidateVA) or drops everything (InvalidateAll).
func (c *Cache) CleanInvalidateAll() error {
	c.contentGen++
	for w := 0; w < c.cfg.Ways; w++ {
		for s := 0; s < c.sets; s++ {
			e := c.tagEntry(w, s)
			if e&tagValidBit == 0 {
				continue
			}
			if e&tagDirtyBit != 0 {
				c.dataRAM[w].ReadBytesInto(s*c.cfg.LineBytes, c.scratch)
				if c.cfg.InlineECC {
					eccDecodeLine(c.scratch)
				}
				if err := c.backing.WriteLine(c.lineAddr(e&tagMask, s), c.scratch); err != nil {
					return err
				}
				c.stats.Writebacks++
			}
			c.setTagEntry(w, s, e&^(tagValidBit|tagDirtyBit))
		}
	}
	return nil
}
