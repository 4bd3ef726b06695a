package core

import (
	"bytes"
	"testing"

	"repro/internal/aes"
	"repro/internal/analysis"
	"repro/internal/board"
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/soc"
)

func newBoard(t testing.TB, spec soc.DeviceSpec, opts soc.Options) *board.Board {
	t.Helper()
	env := sim.NewEnv()
	b, err := board.New(env, spec, opts, 0xBEEFCAFE)
	if err != nil {
		t.Fatal(err)
	}
	b.ConnectMain()
	return b
}

func TestVoltBootCachesNOPVictim(t *testing.T) {
	for _, spec := range []soc.DeviceSpec{soc.BCM2711(), soc.BCM2837()} {
		t.Run(spec.SoCName, func(t *testing.T) {
			b := newBoard(t, spec, soc.Options{})
			victim, groundTruth, err := VictimNOPFillImage(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunVictim(b, victim, 10_000_000); err != nil {
				t.Fatal(err)
			}
			// Physical ground truth: the i-cache contents the instant the
			// device is "captured".
			truth := make([][][]byte, spec.Cores)
			for c, core := range b.SoC.Cores {
				for w := 0; w < spec.L1I.Ways; w++ {
					truth[c] = append(truth[c], core.L1I.DumpWay(w))
				}
			}
			res, err := VoltBootCaches(b, DefaultAttackConfig())
			if err != nil {
				t.Fatal(err)
			}
			// §7.1.1: 100% data retention accuracy in all cores — the
			// extraction is bit-exact against the captured cache state.
			// For InlineECC i-caches (BCM2837, footnote 4) the raw dump
			// holds the ECC-interleaved image, so the word to count is
			// the encoded NOP, exactly as the paper scores that device
			// by before/after comparison rather than plain machine code.
			nopWord := groundTruth[0]
			if spec.L1I.InlineECC {
				nopWord = cache.ECCEncodeWord(nopWord)
			}
			nop := make([]byte, 4)
			for i := range nop {
				nop[i] = byte(nopWord >> (8 * i))
			}
			for c, dump := range res.Dumps {
				totalWords, nopWords := 0, 0
				for w, way := range dump.L1I {
					if hd := analysis.FractionalHD(truth[c][w], way); hd != 0 {
						t.Fatalf("core %d way %d: retention accuracy < 100%% (HD %v)", c, w, hd)
					}
					for i := 0; i+4 <= len(way); i += 4 {
						totalWords++
						if bytes.Equal(way[i:i+4], nop) {
							nopWords++
						}
					}
				}
				// Sanity: the extracted image really is the NOP victim
				// (a line or two differs where the HLT line landed).
				if frac := float64(nopWords) / float64(totalWords); frac < 0.99 {
					t.Fatalf("core %d: NOP fraction in extracted i-cache = %v", dump.Core, frac)
				}
			}
			if len(res.Trace) < 5 {
				t.Fatalf("attack trace too short: %v", res.Trace)
			}
		})
	}
}

func TestVoltBootExactRetentionVsPhysicalTruth(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	victim, err := VictimPatternFillImage(0x100000, 2048, 0x5A)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 10_000_000); err != nil {
		t.Fatal(err)
	}
	// Physical ground truth straight from the simulated silicon.
	truth := make([][][]byte, spec.Cores)
	for c, core := range b.SoC.Cores {
		for w := 0; w < spec.L1D.Ways; w++ {
			truth[c] = append(truth[c], core.L1D.DumpWay(w))
		}
	}
	res, err := VoltBootCaches(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c, dump := range res.Dumps {
		for w, way := range dump.L1D {
			if hd := analysis.FractionalHD(truth[c][w], way); hd != 0 {
				t.Fatalf("core %d way %d: extraction error HD=%v, want exact", c, w, hd)
			}
		}
	}
}

func TestColdBootFailsOnSRAM(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	victim, err := VictimPatternFillImage(0x100000, 2048, 0xA5)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 10_000_000); err != nil {
		t.Fatal(err)
	}
	truth := b.SoC.Cores[0].L1D.DumpWay(0)
	res, err := ColdBootCaches(b, -40, 5*sim.Millisecond, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	hd := analysis.FractionalHD(truth, res.Dumps[0].L1D[0])
	// Table 1: ~50% error at -40°C.
	if hd < 0.40 {
		t.Fatalf("cold boot at -40°C retained data (HD=%v); §3 says it must not", hd)
	}
}

func TestVoltBootRegistersRetainVectors(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	victim, err := VictimVectorFillImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 1_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := VoltBootRegisters(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c, regs := range res.PerCore {
		for v, reg := range regs {
			want := byte(0xAA)
			if v%2 == 1 {
				want = 0xFF
			}
			for i, got := range reg {
				if got != want {
					t.Fatalf("core %d V%d byte %d = %#x, want %#x", c, v, i, got, want)
				}
			}
		}
	}
}

func TestVoltBootStealsAESRoundKeys(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	masterKey := []byte("on-chip AES key!")
	sched, err := aes.ExpandKey128(masterKey)
	if err != nil {
		t.Fatal(err)
	}
	// TRESOR-style victim: round keys 0..10 live in V0..V10 only.
	var rks [][]byte
	for r := 0; r <= 10; r++ {
		rks = append(rks, aes.RoundKey(sched, r))
	}
	victim, err := VictimVectorKeyImage(rks)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 1_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := VoltBootRegisters(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Recover the master key from the round key extracted out of V7.
	got, err := aes.InvertSchedule128(res.PerCore[0][7], 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, masterKey) {
		t.Fatalf("recovered key %x, want %x", got, masterKey)
	}
}

func TestVoltBootIRAM(t *testing.T) {
	spec := soc.IMX53()
	b := newBoard(t, spec, soc.Options{})
	// First boot (internal ROM), then stage the image over JTAG.
	if err := b.SoC.Boot(nil); err != nil {
		t.Fatal(err)
	}
	image := make([]byte, spec.IRAMBytes)
	for i := range image {
		image[i] = byte(i * 7)
	}
	if err := b.SoC.JTAGWriteIRAM(0, image); err != nil {
		t.Fatal(err)
	}
	res, err := VoltBootIRAM(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	overall := analysis.FractionalHD(image, res.Image)
	// §7.3: overall error ≈2.7%, all of it from the boot ROM scratchpad.
	if overall > 0.05 || overall < 0.005 {
		t.Fatalf("iRAM extraction error = %v, want ≈0.027", overall)
	}
	// The untouched middle must be exact.
	if hd := analysis.FractionalHD(image[0x2000:0x1E000], res.Image[0x2000:0x1E000]); hd != 0 {
		t.Fatalf("untouched iRAM region corrupted: HD=%v", hd)
	}
}

func TestVoltBootIRAMOnNonJTAGDevice(t *testing.T) {
	b := newBoard(t, soc.BCM2711(), soc.Options{})
	if _, err := VoltBootIRAM(b, DefaultAttackConfig()); err == nil {
		t.Fatal("expected error on device without JTAG-accessible iRAM")
	}
}

func TestWeakProbeDegradesExtraction(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	victim, err := VictimPatternFillImage(0x100000, 2048, 0x33)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 10_000_000); err != nil {
		t.Fatal(err)
	}
	truth := b.SoC.Cores[0].L1D.DumpWay(0)
	cfg := DefaultAttackConfig()
	cfg.Probe.MaxAmps = 0.2 // far below the 2.5A surge
	res, err := VoltBootCaches(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hd := analysis.FractionalHD(truth, res.Dumps[0].L1D[0])
	if hd == 0 {
		t.Fatal("a 0.2A probe should lose cells to the disconnect surge")
	}
}

func TestAuthenticatedBootBlocksExtraction(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{AuthenticatedBoot: true})
	if _, err := VoltBootCaches(b, DefaultAttackConfig()); err == nil {
		t.Fatal("authenticated boot must reject the unsigned extraction payload")
	}
}

func TestCacheDumpPayloadLayout(t *testing.T) {
	spec := soc.BCM2711()
	_, layout, err := cacheDumpPayload(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if layout.L1DWayBytes != 16*1024 || layout.L1IWayBytes != 16*1024 {
		t.Fatalf("way sizes = %d/%d", layout.L1DWayBytes, layout.L1IWayBytes)
	}
	if len(layout.L1DOffsets) != 2 || len(layout.L1IOffsets) != 3 {
		t.Fatalf("offsets = %v / %v", layout.L1DOffsets, layout.L1IOffsets)
	}
	// Regions must not overlap.
	off0, size0 := layout.WayRegion(0, false, 0)
	off1, _ := layout.WayRegion(0, false, 1)
	if off0+uint64(size0) > off1 {
		t.Fatal("way regions overlap")
	}
	// Core regions must not overlap either.
	lastOff, lastSize := layout.WayRegion(0, true, 2)
	nextCore, _ := layout.WayRegion(1, false, 0)
	if lastOff+uint64(lastSize) > nextCore {
		t.Fatal("core regions overlap")
	}
}

func TestVictimVectorKeyImageValidation(t *testing.T) {
	if _, err := VictimVectorKeyImage([][]byte{make([]byte, 8)}); err == nil {
		t.Fatal("short round key accepted")
	}
	long := make([][]byte, 33)
	for i := range long {
		long[i] = make([]byte, 16)
	}
	if _, err := VictimVectorKeyImage(long); err == nil {
		t.Fatal("33 round keys accepted")
	}
}

func TestAttackTraceMentionsPad(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	res, err := VoltBootCaches(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Trace {
		if bytes.Contains([]byte(s.What), []byte("TP15")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace does not mention the Table 3 pad: %v", res.Trace)
	}
}

// TestTagExtractionRecoversAddresses: the tag-dumping attack variant
// yields each stolen line's memory address, letting the attacker map the
// victim's layout, not just its bytes.
func TestTagExtractionRecoversAddresses(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	// Victim touches three known lines through the d-cache.
	victim, err := VictimPatternFillImage(0x123400&^63, 8*3, 0x6B)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunVictim(b, victim, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ext, err := VoltBootCachesWithTags(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	dump := ext.Dumps[0]
	if len(dump.L1DTags) != spec.L1D.Ways {
		t.Fatalf("tag dumps for %d ways", len(dump.L1DTags))
	}
	// Reconstruct addresses from the raw tag entries and look for the
	// victim's line.
	found := map[uint64]bool{}
	for w := range dump.L1DTags {
		for set, entry := range dump.L1DTags[w] {
			li := cache.ParseTagEntry(entry, set, spec.L1D)
			if li.Valid {
				found[li.Addr] = true
			}
		}
	}
	for _, addr := range []uint64{0x123400 &^ 63} {
		if !found[addr] {
			t.Fatalf("victim line address %#x not recovered from tag dump", addr)
		}
	}
}

// TestKeyScheduleFoundInCacheDump: the §6.1 step-4 workflow end to end —
// the victim's AES schedule sits somewhere in the d-cache; the attacker
// dumps the cache blind and locates the key with a schedule scan.
func TestKeyScheduleFoundInCacheDump(t *testing.T) {
	spec := soc.BCM2711()
	b := newBoard(t, spec, soc.Options{})
	if err := b.SoC.Boot(nil); err != nil {
		t.Fatal(err)
	}
	// Victim: schedule resident in the d-cache (CaSE/Copker style).
	key := []byte("cache-hidden key")
	sched, err := aes.ExpandKey128(key)
	if err != nil {
		t.Fatal(err)
	}
	cc := b.SoC.Cores[0]
	cc.L1D.InvalidateAll()
	cc.L1D.SetEnabled(true)
	for i := 0; i < len(sched); i += 8 {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(sched[i+k]) << (8 * k)
		}
		if _, err := cc.L1D.Access(0x100000+uint64(i), 8, true, v, false); err != nil {
			t.Fatal(err)
		}
	}

	ext, err := VoltBootCaches(b, DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The attacker scans every extracted way without knowing the layout.
	var found *aes.FoundKey
	for _, dump := range ext.Dumps {
		for _, way := range dump.L1D {
			for _, h := range aes.FindKeySchedules(way, 0) {
				h := h
				found = &h
			}
		}
	}
	if found == nil {
		t.Fatal("schedule scan found nothing in the dump")
	}
	if !bytes.Equal(found.Key, key) {
		t.Fatalf("scan recovered %x, want %x", found.Key, key)
	}
}
