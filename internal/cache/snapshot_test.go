package cache

import (
	"testing"

	"repro/internal/sram"
	"repro/internal/xrand"
)

// refAux is the plain reference for the cache's snapshot pair: every
// timestamp copied at capture and copied back at restore, with no
// touched log.
type refAux struct {
	lastUse    [][]uint64
	useTick    uint64
	enabled    bool
	lockedWays []bool
	stats      Stats
}

func refCaptureAux(c *Cache) *refAux {
	r := &refAux{useTick: c.useTick, enabled: c.enabled, lockedWays: append([]bool(nil), c.lockedWays...), stats: c.stats}
	for _, lu := range c.lastUse {
		r.lastUse = append(r.lastUse, append([]uint64(nil), lu...))
	}
	return r
}

func refRestoreAux(c *Cache, r *refAux) {
	for w := range c.lastUse {
		copy(c.lastUse[w], r.lastUse[w])
	}
	c.useTick = r.useTick
	c.enabled = r.enabled
	copy(c.lockedWays, r.lockedWays)
	c.stats = r.stats
	c.memoWay = -1
	c.contentGen++
}

// lruSide is one cache of the oracle with its SRAM array snapshots.
type lruSide struct {
	c      *Cache
	arrays [][]*sram.ArraySnapshot
}

func (s *lruSide) captureArrays() {
	var snaps []*sram.ArraySnapshot
	for _, a := range s.c.Arrays() {
		snaps = append(snaps, a.CaptureSnapshot())
	}
	s.arrays = append(s.arrays, snaps)
}

func (s *lruSide) restoreArrays(k int) {
	for i, a := range s.c.Arrays() {
		a.RestoreSnapshot(s.arrays[k][i])
	}
}

// TestRestoreAuxMatchesFullCopy is the differential oracle for the
// touched-only LRU restore. Two identical caches run the same random
// sequence of loads, stores, fetch-hit touches, DC ZVAs, way-lock
// toggles, captures and restores. One captures and restores with
// CaptureAux/RestoreAux, which rewinds only the timestamps touched since
// the capture or restore it tracks; the other with the plain full copy
// (refCaptureAux/refRestoreAux). Restores pick any of up to four
// snapshots, so some restore a snapshot the cache is not tracking. After
// every restore the timestamps, the tick and the stats must agree, and
// so must the ways the next fills choose as victims.
func TestRestoreAuxMatchesFullCopy(t *testing.T) {
	cfg := Config{Name: "lru", SizeBytes: 8 * 1024, Ways: 4, LineBytes: 64} // 32 sets
	for _, seed := range []uint64{1, 2, 3, 0x5EED} {
		got := &lruSide{}
		ref := &lruSide{}
		got.c, _, _ = newTestCache(t, cfg)
		ref.c, _, _ = newTestCache(t, cfg)
		var gotSnaps []*AuxSnapshot
		var refSnaps []*refAux
		var tracked, untracked int
		r := xrand.New(seed)
		compare := func(stage string, op int) {
			t.Helper()
			g, w := got.c, ref.c
			if g.useTick != w.useTick || g.stats != w.stats || g.enabled != w.enabled {
				t.Fatalf("seed %d op %d %s: tick %d stats %+v enabled %v; reference %d %+v %v",
					seed, op, stage, g.useTick, g.stats, g.enabled, w.useTick, w.stats, w.enabled)
			}
			for way := range w.lastUse {
				for set, u := range w.lastUse[way] {
					if g.lastUse[way][set] != u {
						t.Fatalf("seed %d op %d %s: lastUse[%d][%d] = %d, reference %d",
							seed, op, stage, way, set, g.lastUse[way][set], u)
					}
				}
			}
		}
		// access runs one access on both sides and checks both chose the
		// same way for the line.
		access := func(op int, addr uint64, write bool, v uint64) {
			t.Helper()
			for _, s := range []*lruSide{got, ref} {
				if _, err := s.c.Access(addr, 8, write, v, false); err != nil {
					t.Fatal(err)
				}
			}
			gw, gs, _ := got.c.ResidentWaySet(addr)
			rw, rs, _ := ref.c.ResidentWaySet(addr)
			if gw != rw || gs != rs {
				t.Fatalf("seed %d op %d: %#x landed in way %d set %d, reference way %d set %d",
					seed, op, addr, gw, gs, rw, rs)
			}
		}
		for op := 0; op < 4000; op++ {
			addr := uint64(r.Intn(64*1024)) &^ 7
			switch k := r.Intn(100); {
			case k < 55:
				access(op, addr, r.Bool(), r.Uint64())
			case k < 70:
				// A predecode hit replays only the hit count and the touch.
				if w, s, ok := ref.c.ResidentWaySet(addr); ok {
					got.c.TouchFetchHit(w, s)
					ref.c.TouchFetchHit(w, s)
				}
			case k < 75:
				for _, s := range []*lruSide{got, ref} {
					if err := s.c.ZeroLineVA(addr, false); err != nil {
						t.Fatal(err)
					}
				}
			case k < 77:
				locked := !ref.c.WayLocked(0)
				got.c.LockWay(0, locked)
				ref.c.LockWay(0, locked)
			case k < 82:
				if len(gotSnaps) == 4 {
					continue
				}
				got.captureArrays()
				ref.captureArrays()
				gotSnaps = append(gotSnaps, got.c.CaptureAux())
				refSnaps = append(refSnaps, refCaptureAux(ref.c))
			default:
				if len(gotSnaps) == 0 {
					continue
				}
				i := r.Intn(len(gotSnaps))
				if got.c.snapOwner == gotSnaps[i] {
					tracked++
				} else {
					untracked++
				}
				got.restoreArrays(i)
				ref.restoreArrays(i)
				got.c.RestoreAux(gotSnaps[i])
				refRestoreAux(ref.c, refSnaps[i])
				compare("after restore", op)
				for n := 0; n < 3; n++ {
					access(op, uint64(64*1024+r.Intn(64*1024))&^7, false, 0)
				}
			}
		}
		compare("at the end", 4000)
		if tracked == 0 || untracked == 0 {
			t.Fatalf("seed %d: %d tracked and %d untracked restores; the oracle needs both", seed, tracked, untracked)
		}
	}
}
