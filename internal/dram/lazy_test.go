package dram

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Differential oracles for the write-once retention table and deferred
// decay resolution: chunks drawn on demand, in any order, with the chunks
// below a read skipped rather than drawn, must reproduce one eager
// in-order fill of the whole module value for value, and a module that
// draws on demand must decay exactly like one that drew its whole table
// first and like refModule, the plain per-byte reference.

// lazyTestSize spans six full chunks plus a short final one.
const lazyTestSize = 6*retChunk + 12345

// ensureRetention draws every retention chunk overlapping bytes
// [off, off+n) that is not drawn yet: the eager reference's whole-table
// fill, and the tests' way to draw one chunk ahead of any resolution.
func (m *Module) ensureRetention(off, n int) {
	for c, last := off>>retChunkShift, (off+n-1)>>retChunkShift; c <= last; c++ {
		if m.logRetention[c] == nil {
			m.drawRetChunk(c)
		}
	}
}

// refModule is the plain reference for Module's decay: the whole
// retention table drawn in one in-order fill, and every outage applied to
// every byte at PowerOn with the original predicate, elapsed ≥
// median·exp(lr) — no deferral, no certificates, no ground shortcut.
type refModule struct {
	env      *sim.Env
	model    RetentionModel
	data     []byte
	logRet   []float32
	offSince sim.Time
	offTempK float64
}

// powerCycler is what the oracles take through an outage: a Module or
// the reference.
type powerCycler interface {
	PowerOff()
	PowerOn()
}

func newRefModule(env *sim.Env, name string, size int, model RetentionModel, seed uint64) *refModule {
	r := &refModule{env: env, model: model, data: make([]byte, size), logRet: make([]float32, size)}
	xrand.Derive(seed, "dram:"+name).FillNormFloat32(r.logRet, model.RetentionSigma)
	for i := range r.data {
		r.data[i] = r.ground(i)
	}
	return r
}

func (r *refModule) ground(i int) byte {
	if (i/r.model.GroundBlockBytes)%2 == 1 {
		return 0xFF
	}
	return 0x00
}

func (r *refModule) PowerOff() { r.offSince, r.offTempK = r.env.Now(), r.env.TemperatureK() }

func (r *refModule) PowerOn() {
	elapsed := float64(r.env.Now() - r.offSince)
	median := float64(r.model.MedianRetentionAt(r.offTempK))
	for i, lr := range r.logRet {
		if !(elapsed < median*math.Exp(float64(lr))) {
			r.data[i] = r.ground(i)
		}
	}
}

func TestRetentionChunksMatchEagerFill(t *testing.T) {
	for _, seed := range []uint64{1, 0x5EED} {
		model := DefaultRetentionModel()
		m := NewModule(sim.NewQuietEnv(), "lazy", lazyTestSize, model, seed)
		for _, c := range xrand.New(seed).Perm(len(m.logRetention)) {
			m.ensureRetention(c<<retChunkShift, 1)
		}
		if m.retDrawn != len(m.logRetention) {
			t.Fatalf("drew %d of %d chunks", m.retDrawn, len(m.logRetention))
		}
		want := make([]float32, lazyTestSize)
		xrand.Derive(seed, "dram:lazy").FillNormFloat32(want, model.RetentionSigma)
		for i, w := range want {
			if got := m.logRetention[i>>retChunkShift][i&(retChunk-1)]; got != w {
				t.Fatalf("seed %#x: logRetention[%d] = %v, want %v", seed, i, got, w)
			}
		}
	}
}

// groundHeavyFill returns module contents with half the retention chunks
// left at ground and the other half random, a quarter of their bytes
// reset to the ground value: the mix that exercises resolution's
// ground-byte shortcut, which an all-random fill almost never reaches.
func groundHeavyFill(m *Module, seed uint64) []byte {
	b := make([]byte, m.Size())
	m.fillGround(b, 0)
	r := xrand.New(seed)
	for c := 1; c<<retChunkShift < len(b); c += 2 {
		lo, hi := c<<retChunkShift, min((c+1)<<retChunkShift, len(b))
		r.Bytes(b[lo:hi])
		for i := lo; i < hi; i++ {
			if r.Intn(4) == 0 {
				b[i] = m.groundByte(i)
			}
		}
	}
	return b
}

// sparseFill returns module contents at ground except for a few short
// random runs: the shape of a fault-campaign rig, which leaves most
// pages absent.
func sparseFill(m *Module, seed uint64) []byte {
	b := make([]byte, m.Size())
	m.fillGround(b, 0)
	r := xrand.New(seed)
	for k := 0; k < 12; k++ {
		off := r.Intn(len(b) - 600)
		r.Bytes(b[off : off+1+r.Intn(600)])
	}
	return b
}

// presentPages counts the module's allocated pages.
func (m *Module) presentPages() int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestLazyModuleMatchesEager drives two same-seed modules — one drawing
// retention chunks as resolutions read them, one that drew the whole
// table at construction — and the plain reference, a flat byte image,
// through outages from zero length to total loss, reads at random
// offsets, writes, snapshot restores and a back-to-back outage, and
// compares every read byte for byte. A page-table phase (checkPages)
// adds sparse and ground-valued writes, a whole-module zero write (the
// TCG reset wipe), reads across page boundaries, two snapshots restored
// in turn, and restores of snapshots the module is not tracking. It runs
// over three inputs: all-random contents, ground-heavy contents whose
// ground bytes resolve without reading their retention, and sparse
// contents that leave most pages absent.
func TestLazyModuleMatchesEager(t *testing.T) {
	inputs := []struct {
		name string
		fill func(m *Module, seed uint64) []byte
	}{
		{"random", func(m *Module, seed uint64) []byte {
			b := make([]byte, m.Size())
			xrand.New(seed).Bytes(b)
			return b
		}},
		{"ground-heavy", groundHeavyFill},
		{"sparse", sparseFill},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			for _, seed := range []uint64{3, 0x5EED} {
				checkLazyMatchesEager(t, seed, in.fill)
			}
		})
	}
}

func checkLazyMatchesEager(t *testing.T, seed uint64, fillFn func(m *Module, seed uint64) []byte) {
	outages := []struct {
		tempC float64
		off   sim.Time
	}{
		{25, 0},
		{25, sim.Millisecond},       // below every byte's retention
		{25, 500 * sim.Millisecond}, // a few percent decay
		{25, 3 * sim.Second},        // about half
		{-30, 25 * sim.Second},
		{25, 3600 * sim.Second}, // total loss
	}
	envL, envE, envR := sim.NewQuietEnv(), sim.NewQuietEnv(), sim.NewQuietEnv()
	lazy := NewModule(envL, "dimm", lazyTestSize, DefaultRetentionModel(), seed)
	eager := NewModule(envE, "dimm", lazyTestSize, DefaultRetentionModel(), seed)
	eager.ensureRetention(0, lazyTestSize)
	ref := newRefModule(envR, "dimm", lazyTestSize, DefaultRetentionModel(), seed)

	// Write the fill page by page, skipping the pages it leaves at
	// ground: those stay absent, and reads must not allocate them.
	fill := fillFn(lazy, seed)
	written := 0
	for off := 0; off < lazyTestSize; off += pageBytes {
		pg := fill[off:min(off+pageBytes, lazyTestSize)]
		if bytes.Equal(pg, ref.data[off:off+len(pg)]) {
			continue
		}
		lazy.Write(off, pg)
		eager.Write(off, pg)
		copy(ref.data[off:], pg)
		written++
	}
	if !bytes.Equal(lazy.Read(0, lazyTestSize), ref.data) {
		t.Fatalf("seed %#x: the fill reads back differently", seed)
	}
	if got := lazy.presentPages(); got != written {
		t.Fatalf("seed %#x: %d pages present after reading the whole module, want the %d written", seed, got, written)
	}
	snapL, snapE, snapR := lazy.CaptureSnapshot(), eager.CaptureSnapshot(), bytes.Clone(ref.data)
	t0 := envL.Now()

	rng := xrand.New(seed ^ 0xA11CE)
	compare := func(stage string, off, n int) {
		t.Helper()
		want := ref.data[off : off+n]
		if got := lazy.Read(off, n); !bytes.Equal(got, want) {
			t.Fatalf("seed %#x, %s: Read(%d, %d) differs from the plain reference", seed, stage, off, n)
		}
		if got := eager.Read(off, n); !bytes.Equal(got, want) {
			t.Fatalf("seed %#x, %s: eager-table Read(%d, %d) differs from the plain reference", seed, stage, off, n)
		}
	}
	outage := func(tempC float64, off sim.Time) {
		for _, p := range []struct {
			m powerCycler
			e *sim.Env
		}{{lazy, envL}, {eager, envE}, {ref, envR}} {
			p.e.SetTemperatureC(tempC)
			p.m.PowerOff()
			p.e.Advance(off)
			p.m.PowerOn()
		}
	}
	for _, o := range outages {
		outage(o.tempC, o.off)
		stage := "outage " + o.off.String()
		for k := 0; k < 48; k++ {
			off := rng.Intn(lazyTestSize)
			n := min(1+rng.Intn(3000), lazyTestSize-off)
			if k%5 == 4 {
				// Interleaved writes retire bytes before anything reads them.
				b := make([]byte, n)
				rng.Bytes(b)
				lazy.Write(off, b)
				eager.Write(off, b)
				copy(ref.data[off:], b)
				continue
			}
			compare(stage, off, n)
		}
		compare(stage+" full read", 0, lazyTestSize)
		lazy.RestoreSnapshot(snapL)
		eager.RestoreSnapshot(snapE)
		copy(ref.data, snapR)
		for _, e := range []*sim.Env{envL, envE, envR} {
			e.Rewind(t0, 25)
		}
		compare(stage+" after restore", 0, lazyTestSize)
	}
	checkPages(t, seed, rng, []*Module{lazy, eager}, ref, snapL, snapE, snapR, compare, outage)
	// Back to back: the second outage begins while the first one's
	// resolution is still deferred, so PowerOff resolves it all.
	outage(25, 3*sim.Second)
	compare("first of two outages", lazyTestSize-100, 100)
	outage(25, 2*sim.Second)
	compare("second of two outages", 0, lazyTestSize)
}

// checkPages is the page-table phase of checkLazyMatchesEager. It starts
// from snapshot A (snapL/snapE/snapR, tracked by both modules), and
// every step is applied to both modules and the flat reference:
//
//   - sparse writes, a third of them ground values, some into absent
//     pages;
//   - a capture of snapshot B, then writes that copy shared pages;
//   - reads straddling page boundaries, where absent, owned and shared
//     pages meet;
//   - restores of A and B in turn: the first of each is a restore of a
//     snapshot the module is not tracking, the last a tracked one;
//   - the TCG wipe, a zero write over the whole module, then a restore;
//   - a deferred-decay outage whose materialization copies the pages it
//     decays, then a tracked and an untracked restore.
func checkPages(t *testing.T, seed uint64, rng *xrand.Rand, mods []*Module, ref *refModule,
	snapL, snapE *ModuleSnapshot, snapR []byte,
	compare func(stage string, off, n int), outage func(tempC float64, off sim.Time)) {
	t.Helper()
	write := func(off int, b []byte) {
		for _, m := range mods {
			m.Write(off, b)
		}
		copy(ref.data[off:], b)
	}
	sparse := func() {
		for k := 0; k < 24; k++ {
			off := rng.Intn(lazyTestSize - 200)
			b := make([]byte, 1+rng.Intn(200))
			if k%3 == 0 {
				mods[0].fillGround(b, off)
			} else {
				rng.Bytes(b)
			}
			write(off, b)
		}
	}
	boundaries := func(stage string) {
		for p := 1; p < lazyTestSize/pageBytes; p += 1 + rng.Intn(7) {
			compare(stage, p*pageBytes-1-rng.Intn(100), 2+rng.Intn(200))
		}
	}
	snaps := [2][]*ModuleSnapshot{{snapL, snapE}, {}}
	images := [2][]byte{snapR, nil}
	restore := func(k int, stage string) {
		for i, m := range mods {
			m.RestoreSnapshot(snaps[k][i])
		}
		copy(ref.data, images[k])
		compare(stage, 0, lazyTestSize)
	}

	restore(0, "restore of A")
	sparse()
	boundaries("sparse writes")
	for _, m := range mods {
		snaps[1] = append(snaps[1], m.CaptureSnapshot())
	}
	images[1] = bytes.Clone(ref.data)
	sparse()
	boundaries("writes after capturing B")
	restore(0, "untracked restore of A")
	sparse()
	restore(1, "untracked restore of B")
	sparse()
	boundaries("writes after restoring B")
	restore(1, "tracked restore of B")

	write(0, make([]byte, lazyTestSize))
	compare("TCG wipe", 0, lazyTestSize)
	restore(1, "restore after the wipe")

	outage(25, 500*sim.Millisecond)
	boundaries("deferred decay")
	compare("deferred decay", 0, lazyTestSize)
	restore(1, "tracked restore after an outage")
	restore(0, "untracked restore after an outage")
}

// TestGroundBytesDrawNoRetention pins where resolution reads retention:
// only for bytes that differ from their ground value. Resolving a module
// still at ground draws no chunk; non-ground bytes inside one chunk draw
// that chunk alone, skipping (not drawing) the chunks below it, and
// decay exactly as in the plain reference.
func TestGroundBytesDrawNoRetention(t *testing.T) {
	const seed = 0x5EED
	env := sim.NewQuietEnv()
	lazy := NewModule(env, "dimm", lazyTestSize, DefaultRetentionModel(), seed)
	ref := newRefModule(env, "dimm", lazyTestSize, DefaultRetentionModel(), seed)
	ground := bytes.Clone(ref.data)
	outage := func() {
		lazy.PowerOff()
		ref.PowerOff()
		env.Advance(3 * sim.Second) // about half of all bytes decay
		lazy.PowerOn()
		ref.PowerOn()
	}

	outage()
	if got := lazy.Read(0, lazyTestSize); !bytes.Equal(got, ground) {
		t.Fatal("a module at ground read back something else after an outage")
	}
	if lazy.retDrawn != 0 {
		t.Fatalf("resolving an all-ground module drew %d retention chunks, want 0", lazy.retDrawn)
	}

	// Non-ground bytes in chunk c, written before the outage: those whose
	// retention falls short decay, the rest survive.
	const c = 4
	off := c<<retChunkShift + 1000
	pattern := bytes.Repeat([]byte{0x5A}, 256)
	lazy.Write(off, pattern)
	copy(ref.data[off:], pattern)
	outage()
	got, want := lazy.Read(0, lazyTestSize), ref.data
	if !bytes.Equal(got, want) {
		t.Fatal("resolution differs from the plain reference")
	}
	if bytes.Equal(want[off:off+len(pattern)], pattern) || bytes.Equal(want, ground) {
		t.Fatal("the outage decayed all or none of the pattern; test is vacuous")
	}
	if lazy.retDrawn != 1 || lazy.logRetention[c] == nil {
		t.Fatalf("drew %d chunks (chunk %d drawn: %v), want exactly chunk %d",
			lazy.retDrawn, c, lazy.logRetention[c] != nil, c)
	}
	if len(lazy.retCkpt) != c+2 {
		t.Fatalf("%d stream checkpoints after drawing chunk %d, want %d (chunks below skipped)",
			len(lazy.retCkpt), c, c+2)
	}
}

// TestPartialTableCertifiesNothing: the module-wide "no byte decays"
// certificate must wait for the whole table. A drawn chunk's minimum
// says nothing about chunks not drawn yet, so an outage that spares
// every byte of the first chunk read but not the leakiest byte elsewhere
// must still decay that byte.
func TestPartialTableCertifiesNothing(t *testing.T) {
	const seed = 0x5EED
	model := DefaultRetentionModel()
	envL, envE := sim.NewQuietEnv(), sim.NewQuietEnv()
	lazy := NewModule(envL, "dimm", lazyTestSize, model, seed)
	eager := NewModule(envE, "dimm", lazyTestSize, model, seed)
	eager.ensureRetention(0, lazyTestSize)

	// The chunk whose minimum sits furthest above the module minimum.
	best, bestMin := -1, float32(math.Inf(-1))
	for c, chunk := range eager.logRetention {
		lo := float32(math.Inf(1))
		for _, lr := range chunk {
			lo = min(lo, lr)
		}
		if lo > bestMin {
			best, bestMin = c, lo
		}
	}
	if bestMin <= eager.minLogRet {
		t.Fatal("every chunk holds the module minimum; test is vacuous")
	}
	logEl := (float64(eager.minLogRet) + float64(bestMin)) / 2
	median := float64(model.MedianRetentionAt(sim.CelsiusToKelvin(25)))
	off := sim.Time(median * math.Exp(logEl))

	fill := bytes.Repeat([]byte{0x5A}, lazyTestSize)
	lazy.Write(0, fill)
	eager.Write(0, fill)
	// Draw that chunk alone up front, so both certificate sites — PowerOn
	// and resolution — see a partial table whose minimum survives.
	lazy.ensureRetention(best<<retChunkShift, 1)
	for _, p := range []struct {
		m *Module
		e *sim.Env
	}{{lazy, envL}, {eager, envE}} {
		p.m.PowerOff()
		p.e.Advance(off)
		p.m.PowerOn()
	}
	_ = lazy.Read(best<<retChunkShift, 64)
	got, want := lazy.Read(0, lazyTestSize), eager.Read(0, lazyTestSize)
	if bytes.Equal(want, fill) {
		t.Fatal("the outage decayed nothing; test is vacuous")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a partial retention table certified a module-wide no-decay outage")
	}
}
