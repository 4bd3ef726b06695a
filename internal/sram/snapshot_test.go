package sram

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// snapTestBits is sized so the dirty bitmap has both a partial final
// page (1563 words is not a multiple of 64) and a partial final bitmap
// word (25 pages < 64), exercising the two clamp paths in markSnapAll
// and RestoreSnapshot.
const snapTestBits = 1563 * 64

func newSnapTestArray(t *testing.T, seed uint64) (*sim.Env, *Array) {
	t.Helper()
	env := sim.NewQuietEnv()
	arr := NewArray(env, "snaptest", snapTestBits, seed)
	arr.SetRail(0.8)
	arr.Fill(0xA5)
	return env, arr
}

// TestSnapshotRestoreAfterWrites checks the dirty-page path: scattered
// architectural writes, including ones straddling page boundaries and
// the partial final page, must all be rewound exactly.
func TestSnapshotRestoreAfterWrites(t *testing.T) {
	_, arr := newSnapTestArray(t, 0x5eed)
	snap := arr.CaptureSnapshot()
	ref := arr.Snapshot()
	genBefore := arr.Gen()

	arr.WriteUint64(0, 0xdeadbeefcafef00d)          // first page
	arr.WriteUint64(snapPageWords*8-4, 0x123456789) // straddles pages 0/1
	arr.WriteBytes(5000, bytes.Repeat([]byte{0x3C}, 700))
	arr.WriteBit(snapTestBits-1, !arr.ReadBit(snapTestBits-1)) // partial final page
	if bytes.Equal(ref, arr.Snapshot()) {
		t.Fatal("writes did not change the array; test is vacuous")
	}

	arr.RestoreSnapshot(snap)
	if got := arr.Snapshot(); !bytes.Equal(ref, got) {
		t.Error("restored contents differ from capture")
	}
	if arr.Gen() <= genBefore {
		t.Errorf("gen must be bumped by restore, got %d (was %d)", arr.Gen(), genBefore)
	}
}

// TestSnapshotRestoreAfterPowerCycle checks the markSnapAll path (the
// power cycle rewrites the whole array) and rng-stream rewind: two
// identical outages replayed from the same snapshot must decay to
// byte-identical images.
func TestSnapshotRestoreAfterPowerCycle(t *testing.T) {
	env, arr := newSnapTestArray(t, 0xfeed)
	env.SetTemperatureC(-40)
	snap := arr.CaptureSnapshot()
	ref := arr.Snapshot()
	t0 := env.Now()

	outage := func() []byte {
		arr.SetRail(0)
		env.Advance(20 * sim.Millisecond)
		arr.SetRail(0.8)
		return arr.Snapshot()
	}
	first := outage()
	arr.RestoreSnapshot(snap)
	env.Rewind(t0, -40)
	if got := arr.Snapshot(); !bytes.Equal(ref, got) {
		t.Fatal("restore after power cycle is not bit-identical to capture")
	}
	second := outage()
	if !bytes.Equal(first, second) {
		t.Error("replayed outage decayed differently: rng stream was not rewound")
	}
}

// TestSnapshotRestoreNonOwner checks the fallback: restoring a snapshot
// the dirty bitmap is not tracking against must fall back to a full
// copy and re-arm tracking against the restored snapshot.
func TestSnapshotRestoreNonOwner(t *testing.T) {
	_, arr := newSnapTestArray(t, 0xabcd)
	snap1 := arr.CaptureSnapshot()
	ref1 := arr.Snapshot()

	arr.WriteUint64(128, 0x1111111111111111)
	arr.CaptureSnapshot() // bitmap now tracks against this newer snapshot

	arr.WriteUint64(256, 0x2222222222222222)
	arr.RestoreSnapshot(snap1) // non-owner: full-copy fallback
	if got := arr.Snapshot(); !bytes.Equal(ref1, got) {
		t.Fatal("non-owner restore is not bit-identical to its capture")
	}

	// Tracking re-armed against snap1: the dirty path must now work.
	arr.WriteUint64(512, 0x3333333333333333)
	arr.RestoreSnapshot(snap1)
	if got := arr.Snapshot(); !bytes.Equal(ref1, got) {
		t.Error("owner restore after fallback re-arm is not bit-identical")
	}
}

// BenchmarkSnapshotRestoreDirty measures the sweep-loop steady state: a
// trial dirties a handful of pages of a 1 MB array and restores. The
// point of the copy-on-write design is that this costs O(dirty pages),
// not O(array) — compare BenchmarkSnapshotRestoreFull.
func BenchmarkSnapshotRestoreDirty(b *testing.B) {
	env := sim.NewQuietEnv()
	arr := NewArray(env, "bench", 1024*1024*8, 1)
	arr.SetRail(0.8)
	arr.Fill(0xA5)
	snap := arr.CaptureSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.WriteUint64(0, uint64(i))
		arr.WriteUint64(500000, uint64(i))
		arr.RestoreSnapshot(snap)
	}
}

// BenchmarkSnapshotRestoreFull measures the fallback full-copy restore
// (every page dirty), the cost a fresh-boot-per-trial sweep would pay
// in memory traffic alone.
func BenchmarkSnapshotRestoreFull(b *testing.B) {
	env := sim.NewQuietEnv()
	arr := NewArray(env, "bench", 1024*1024*8, 1)
	arr.SetRail(0.8)
	arr.Fill(0xA5)
	snap := arr.CaptureSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.markSnapAll()
		arr.RestoreSnapshot(snap)
	}
}

// TestSnapshotClearsLateImprint checks that an aging overlay created
// after the capture is cleared back to the captured no-overlay state.
func TestSnapshotClearsLateImprint(t *testing.T) {
	env, arr := newSnapTestArray(t, 0x1234)
	snap := arr.CaptureSnapshot()

	arr.Age(5)
	arr.RestoreSnapshot(snap)

	// An imprinted array biases its power-up fingerprint toward the aged
	// value; after the rewind two power-ups must match a never-aged twin.
	arr.SetRail(0)
	env.Advance(5 * sim.Second)
	arr.SetRail(0.8)
	got := arr.Snapshot()

	tenv := sim.NewQuietEnv()
	twin := NewArray(tenv, "snaptest", snapTestBits, 0x1234)
	twin.SetRail(0.8)
	twin.Fill(0xA5)
	twin.SetRail(0)
	tenv.Advance(5 * sim.Second)
	twin.SetRail(0.8)
	if !bytes.Equal(got, twin.Snapshot()) {
		t.Error("late imprint leaked through restore: fingerprint differs from never-aged twin")
	}
}

// TestSnapshotRestoreRetiresOnlyRewound: a restore keeps the generation
// only if the array's logical content is what it was at the last
// capture or restore, so that no stamp a consumer took during the trial
// can validate against rewound content. A pending array and a twin
// each take one trial event and a restore, then a trial that does
// nothing and a restore. Every restore must rewind the content; the
// first must keep the generation exactly when the event left the twin's
// content as captured, and the second always. The cases include an
// invalidate recorded on pending pages, which changes content without
// dirtying a page, and a page draw, which dirties none and changes no
// content.
func TestSnapshotRestoreRetiresOnlyRewound(t *testing.T) {
	events := []struct {
		name  string
		keep  bool
		apply func(env *sim.Env, a *Array)
	}{
		{"nothing", true, func(*sim.Env, *Array) {}},
		{"page draw", true, func(_ *sim.Env, a *Array) { a.ReadUint64(8 * 700) }},
		{"write", false, func(_ *sim.Env, a *Array) { a.WriteUint64(8*700, 0x5A5A) }},
		{"invalidate on pending pages", false, func(_ *sim.Env, a *Array) { a.InvalidateWords(tagValid, tagDirty) }},
		{"rail down", true, func(_ *sim.Env, a *Array) { a.SetRail(0) }},
		{"power cycle", false, func(env *sim.Env, a *Array) {
			a.SetRail(0)
			env.Advance(10 * sim.Millisecond)
			a.SetRail(0.8)
		}},
	}
	for _, ev := range events {
		env := sim.NewQuietEnv()
		var arrs [3]*Array // the array, its twin, and an untouched copy
		for i := range arrs {
			arrs[i] = NewArray(env, "gen", 1563*64, 0x5EED)
			arrs[i].SetRail(0.8)
		}
		a, twin := arrs[0], arrs[1]
		want := arrs[2].Snapshot()
		snap, twinSnap := a.CaptureSnapshot(), twin.CaptureSnapshot()
		for trial, keep := range []bool{ev.keep, true} {
			if trial == 0 {
				ev.apply(env, a)
				ev.apply(env, twin)
			}
			var during []byte
			if twin.Powered() {
				during = twin.Snapshot()
			}
			g := a.Gen()
			a.RestoreSnapshot(snap)
			twin.RestoreSnapshot(twinSnap)
			if !bytes.Equal(a.Snapshot(), want) {
				t.Fatalf("%s, trial %d: the restored array differs from its capture", ev.name, trial)
			}
			kept := a.Gen() == g
			if kept && during != nil && !bytes.Equal(during, want) {
				t.Fatalf("%s, trial %d: the restore rewound the content and kept the generation", ev.name, trial)
			}
			if kept != keep {
				t.Fatalf("%s, trial %d: the restore kept the generation = %v, want %v", ev.name, trial, kept, keep)
			}
		}
	}
}
