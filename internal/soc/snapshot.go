// Copy-on-write SoC snapshots: the fork point sweeps use to boot and
// fill a device once, then re-run the per-trial tail many times without
// repaying the prefix. CaptureSnapshot records every bit of state a
// trial can observe — SRAM array words (register file, cache tag/data
// RAMs, TLB/BTB, iRAM) behind sram's dirty-page tables, DRAM behind its
// own page table, the caches' plain-memory microarchitectural state,
// each core's flop state, the power network, the boot counters, and the
// simulation clock — and RestoreSnapshot rewinds all of it in O(dirty
// pages).
//
// A snapshot holds machine state only. Observers — a glitcher or a
// trace capturer attached through isa.CPU.Hooks — are not part of it:
// both calls panic while any core has one attached, before touching any
// state. A trial restores first, then arms its observers, runs, and
// disarms them before the next restore.
//
// Determinism contract: a restored SoC is bit-identical to the SoC at
// capture time, including every rng stream position, so the trial tail
// replays exactly as it would on a freshly built board that ran the same
// prefix — the golden-pinned experiments exercise this equivalence on
// every run. The derived-state exceptions are the generation counters
// and the views they guard: the superblocks, the cache way memos and
// the TLB write memo, none of which the restore
// touches. The counters stay monotonic, and a restore retires only what
// it rewound: an array bumps its generation only if its content moved
// since the last capture or restore, a cache bumps its content
// generation only if one of its arrays did or its enable bit changes
// back, and mutGen is left alone. A trial that changed no cache line a
// fetch reads therefore keeps every superblock, and its successor
// starts warm; anything a stale block could misread has moved a
// generation, so it rebuilds with no architectural side effects.
package soc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sram"
)

// Snapshot is the captured state of one SoC, bound to the SoC it came
// from. Restore-in-place: trials on the same board restore sequentially;
// cross-board parallelism forks one board per worker (see
// runner.MapWithResource).
type Snapshot struct {
	soc   *SoC
	now   sim.Time
	tempC float64

	arrays []*sram.ArraySnapshot // parallel to SoC.arrays
	dram   *dram.ModuleSnapshot
	caches []*cache.AuxSnapshot // parallel to SoC.caches

	cpus      []isa.CPUState
	lastFetch []uint64

	coreDom, memDom, ioDom power.DomainSnapshot

	bootCount   int
	orderlyDown bool
	barriers    uint64
}

// refuseObservers panics, naming the core, if any core has a glitcher
// or capturer attached.
func (s *SoC) refuseObservers(op string) {
	for i, c := range s.Cores {
		if c.CPU.Hooks != nil {
			panic(fmt.Sprintf("soc: %s with an observer attached to core %d; disarm it first", op, i))
		}
	}
}

// CaptureSnapshot records the SoC's complete state and arms dirty-page
// tracking on every array and on DRAM. It panics if a core has an
// observer attached.
func (s *SoC) CaptureSnapshot() *Snapshot {
	s.refuseObservers("CaptureSnapshot")
	snap := &Snapshot{
		soc:         s,
		now:         s.Env.Now(),
		tempC:       s.Env.TemperatureC(),
		dram:        s.DRAM.CaptureSnapshot(),
		coreDom:     s.CoreDom.CaptureSnapshot(),
		memDom:      s.MemDom.CaptureSnapshot(),
		ioDom:       s.IODom.CaptureSnapshot(),
		bootCount:   s.bootCount,
		orderlyDown: s.orderlyDown,
		barriers:    s.barriers,
	}
	snap.arrays = make([]*sram.ArraySnapshot, len(s.arrays))
	for i, a := range s.arrays {
		snap.arrays[i] = a.CaptureSnapshot()
	}
	snap.caches = make([]*cache.AuxSnapshot, len(s.caches))
	for i, c := range s.caches {
		snap.caches[i] = c.CaptureAux()
	}
	for _, c := range s.Cores {
		snap.cpus = append(snap.cpus, c.CPU.CaptureState())
		snap.lastFetch = append(snap.lastFetch, c.lastFetch)
	}
	return snap
}

// RestoreSnapshot rewinds the SoC to the captured state in O(dirty
// pages) and retires the generation-stamped derived views of what it
// rewound. It panics if a core has an observer attached.
func (s *SoC) RestoreSnapshot(snap *Snapshot) {
	if snap.soc != s {
		panic("soc: RestoreSnapshot onto a different SoC")
	}
	s.refuseObservers("RestoreSnapshot")
	s.Env.Rewind(snap.now, snap.tempC)
	// Silent electrical rewind first: the array restores below bring the
	// load-side state (rail volts, decay clocks) back themselves, so the
	// domains must not push SetRail edges.
	s.CoreDom.RestoreSnapshot(snap.coreDom)
	s.MemDom.RestoreSnapshot(snap.memDom)
	s.IODom.RestoreSnapshot(snap.ioDom)
	// Arrays first: a cache's restore reads its arrays' generations to
	// tell whether the rewind reached its lines.
	for i, a := range s.arrays {
		a.RestoreSnapshot(snap.arrays[i])
	}
	s.DRAM.RestoreSnapshot(snap.dram)
	for i, c := range s.caches {
		c.RestoreAux(snap.caches[i])
	}
	for i, c := range s.Cores {
		c.CPU.RestoreState(snap.cpus[i])
		c.lastFetch = snap.lastFetch[i]
	}
	s.bootCount = snap.bootCount
	s.orderlyDown = snap.orderlyDown
	s.barriers = snap.barriers
}
