package dram

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestModuleSnapshotRestore checks the owned-page rewind, that the
// write-once retention table survives a restore unchanged (two outages
// replayed from the same snapshot must decay identically), and the
// scalar/outage state restore.
func TestModuleSnapshotRestore(t *testing.T) {
	env := sim.NewEnv()
	env.SetTemperatureC(-30)
	m := NewModule(env, "snaptest", 64*1024, 0x5eed)
	m.Write(0x1000, bytes.Repeat([]byte{0xA5}, 4096))
	m.Write(0x9000, bytes.Repeat([]byte{0x3C}, 100))

	snap := m.CaptureSnapshot()
	ref := m.Read(0, m.Size())
	t0 := env.Now()

	outage := func() []byte {
		m.PowerOff()
		env.Advance(25 * sim.Second)
		m.PowerOn()
		return m.Read(0, m.Size())
	}
	first := outage()
	if bytes.Equal(first, ref) {
		t.Fatal("outage decayed nothing; test is vacuous")
	}

	m.RestoreSnapshot(snap)
	env.Rewind(t0, -30)
	if got := m.Read(0, m.Size()); !bytes.Equal(ref, got) {
		t.Fatal("restore is not bit-identical to capture")
	}
	if !m.Powered() {
		t.Fatal("powered flag not restored")
	}

	second := outage()
	if !bytes.Equal(first, second) {
		t.Error("replayed outage decayed differently across a restore")
	}
}

// TestModuleSnapshotRestoreAfterWrites checks that plain writes after a
// capture are rewound via the owned-page path.
func TestModuleSnapshotRestoreAfterWrites(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "snaptest", 64*1024, 0xfeed)
	m.Write(0, bytes.Repeat([]byte{0x77}, 64*1024))

	snap := m.CaptureSnapshot()
	ref := m.Read(0, m.Size())

	m.Write(0, []byte{1, 2, 3})
	m.Write(pageBytes-1, []byte{9, 9}) // straddles page boundary
	m.WriteUintN(m.Size()-8, 8, 0xdeadbeef)
	m.RestoreSnapshot(snap)
	if got := m.Read(0, m.Size()); !bytes.Equal(ref, got) {
		t.Error("restored contents differ from capture")
	}
}

// BenchmarkModuleCaptureWriteRestore times a fault-campaign rig's DRAM
// at BCM2711's 4 MiB: build the module, load a 1 KiB payload, capture,
// then run eight trials that each stage 16 bytes on another page and
// restore. With the page table this costs what the writes touch, not
// what the module holds.
func BenchmarkModuleCaptureWriteRestore(b *testing.B) {
	env := sim.NewEnv()
	payload := bytes.Repeat([]byte{0x5A, 0xC3}, 512)
	staged := bytes.Repeat([]byte{0x7E}, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewModule(env, "bench", 4<<20, 0x5EED)
		m.Write(0x80000, payload)
		snap := m.CaptureSnapshot()
		for trial := 0; trial < 8; trial++ {
			m.Write(0x200000, staged)
			m.RestoreSnapshot(snap)
		}
	}
}
