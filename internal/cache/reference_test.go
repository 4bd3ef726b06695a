package cache

// Reference-model fuzzing: the cache (with its SRAM-backed tag and data
// arrays, write-back policy, maintenance operations and way locking) must
// behave exactly like a flat byte array under every architecturally
// visible operation sequence. Any divergence means the attack experiments
// could be measuring simulator artifacts instead of physics.

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// refModel is the architectural oracle: a flat memory image.
type refModel struct {
	mem []byte
}

func (r *refModel) read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(r.mem[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (r *refModel) write(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		r.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

func (r *refModel) zeroLine(addr uint64, lineBytes int) {
	base := addr &^ uint64(lineBytes-1)
	for i := 0; i < lineBytes; i++ {
		r.mem[base+uint64(i)] = 0
	}
}

func TestCacheMatchesReferenceModelUnderFuzz(t *testing.T) {
	const memBytes = 1 << 16
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			env := sim.NewEnv()
			back := newFlatBacking(64)
			c, err := New(env, Config{Name: "fuzz", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64},
				seed, back)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range c.Arrays() {
				a.SetRail(0.8)
			}
			c.InvalidateAll()
			c.SetEnabled(true)

			ref := &refModel{mem: make([]byte, memBytes)}
			rng := xrand.New(seed * 7777)

			sizes := []int{1, 2, 4, 8}
			for op := 0; op < 20000; op++ {
				size := sizes[rng.Intn(len(sizes))]
				// Aligned address that never crosses a line.
				addr := uint64(rng.Intn(memBytes/size) * size)
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // write
					v := rng.Uint64()
					if _, err := c.Access(addr, size, true, v, false); err != nil {
						t.Fatalf("op %d write: %v", op, err)
					}
					ref.write(addr, size, v)
				case 4, 5, 6, 7: // read
					got, err := c.Access(addr, size, false, 0, false)
					if err != nil {
						t.Fatalf("op %d read: %v", op, err)
					}
					mask := uint64(1)<<(8*uint(size)) - 1
					if size == 8 {
						mask = ^uint64(0)
					}
					if want := ref.read(addr, size) & mask; got != want {
						t.Fatalf("op %d: read %#x size %d = %#x, want %#x", op, addr, size, got, want)
					}
				case 8: // maintenance
					switch rng.Intn(3) {
					case 0:
						if err := c.CleanInvalidateVA(addr); err != nil {
							t.Fatal(err)
						}
					case 1:
						if err := c.CleanInvalidateAll(); err != nil {
							t.Fatal(err)
						}
					case 2:
						if err := c.ZeroLineVA(addr, false); err != nil {
							t.Fatal(err)
						}
						ref.zeroLine(addr, 64)
					}
				case 9: // toggle a way lock (never lock all ways)
					w := rng.Intn(2)
					other := 1 - w
					if c.lockedWays[other] {
						c.LockWay(other, false)
					}
					c.LockWay(w, rng.Bool())
				}
			}

			// Final coherence check: flush everything and compare the
			// backing store with the reference end to end.
			c.LockWay(0, false)
			c.LockWay(1, false)
			if err := c.CleanInvalidateAll(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for addr := uint64(0); addr < memBytes; addr += 64 {
				if err := back.ReadLine(addr, buf); err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					if buf[i] != ref.mem[addr+uint64(i)] {
						t.Fatalf("post-flush mismatch at %#x: %#x != %#x",
							addr+uint64(i), buf[i], ref.mem[addr+uint64(i)])
					}
				}
			}
		})
	}
}

// TestDisabledCacheMatchesReference: the bypass path must be coherent
// with prior cached writes after a flush.
func TestDisabledCacheMatchesReference(t *testing.T) {
	env := sim.NewEnv()
	back := newFlatBacking(64)
	c, err := New(env, Config{Name: "byp", SizeBytes: 2 * 1024, Ways: 2, LineBytes: 64},
		9, back)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Arrays() {
		a.SetRail(0.8)
	}
	c.InvalidateAll()
	c.SetEnabled(true)
	if _, err := c.Access(0x100, 8, true, 0xABCD, false); err != nil {
		t.Fatal(err)
	}
	if err := c.CleanInvalidateAll(); err != nil {
		t.Fatal(err)
	}
	c.SetEnabled(false)
	v, err := c.Access(0x100, 8, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Fatalf("bypass read after flush = %#x", v)
	}
}
