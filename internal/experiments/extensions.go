package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/sram"
)

// ImprintRow is one residency duration of Ablation D.
type ImprintRow struct {
	Years float64
	// RecoveryAccuracy is the fraction of the old data's bits the
	// power-up state reveals after full decay.
	RecoveryAccuracy float64
}

// ImprintResult is Ablation D: the §9.2 related-work baseline. Data
// imprinting (circuit aging) recovers on-chip data only after years of
// residency and only partially; Volt Boot recovers everything instantly.
type ImprintResult struct {
	Rows []ImprintRow
	// VoltBootAccuracy is the same theft performed with Volt Boot (no
	// aging required).
	VoltBootAccuracy float64
}

// ImprintBaseline ages an SRAM array holding a secret for increasing
// durations and measures how much a power-up readout reveals, then
// contrasts with a held-rail readout.
func ImprintBaseline(seed uint64) *ImprintResult {
	res := &ImprintResult{}
	for _, years := range []float64{0, 1, 2, 5, 10, 20} {
		env := sim.NewEnv()
		arr := sram.NewArray(env, "aged", 1<<14, seed)
		arr.SetRail(0.8)
		arr.Fill(0xC3)
		data := arr.Snapshot()
		if years > 0 {
			arr.Age(years)
		}
		arr.SetRail(0)
		env.Advance(sim.Second)
		arr.SetRail(0.8)
		res.Rows = append(res.Rows, ImprintRow{
			Years:            years,
			RecoveryAccuracy: analysis.RetentionAccuracy(data, arr.Snapshot()),
		})
	}
	// Volt Boot on the same silicon: hold the rail across the cycle.
	env := sim.NewEnv()
	arr := sram.NewArray(env, "held", 1<<14, seed)
	arr.SetRail(0.8)
	arr.Fill(0xC3)
	data := arr.Snapshot()
	env.Advance(sim.Second)
	res.VoltBootAccuracy = analysis.RetentionAccuracy(data, arr.Snapshot())
	return res
}

// String renders Ablation D.
func (r *ImprintResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation D: data-imprinting (aging) attacks vs Volt Boot (§9.2 contrast)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5.0f years residency: power-up readout recovers %s\n",
			row.Years, pct(row.RecoveryAccuracy))
	}
	fmt.Fprintf(&b, "  Volt Boot, 0 seconds of aging:          %s\n", pct(r.VoltBootAccuracy))
	b.WriteString("  (50% = chance; aging attacks need a decade for modest recovery)\n")
	return b.String()
}

// HistoryTheftResult is Ablation E: extracting microarchitectural history
// (TLB contents) after Volt Boot to recover a victim's secret-dependent
// access pattern.
type HistoryTheftResult struct {
	// PIN is the victim's secret (digits index pages it touched).
	PIN []int
	// RecoveredPIN is what the attacker reconstructed from the TLB dump.
	RecoveredPIN []int
	// TLBEntriesRecovered counts valid entries in the dump.
	TLBEntriesRecovered int
	Trace               []core.Step
}

// Recovered reports whether the attack recovered the full PIN.
func (r *HistoryTheftResult) Recovered() bool {
	if len(r.PIN) != len(r.RecoveredPIN) {
		return false
	}
	for i := range r.PIN {
		if r.PIN[i] != r.RecoveredPIN[i] {
			return false
		}
	}
	return true
}

// pinPageBase is where the victim's PIN-indexed table lives (64-page
// aligned so page%64 tracks the slot offset directly).
const pinPageBase = 0x100000

// pinSlot maps a (position, digit) pair to a TLB slot that the
// extraction payload's own footprint cannot clobber. The payload
// touches its code page (slot 0, possibly 1) and the dump pages (slots
// 32, 33) — §6.1 step 3A's contamination problem — so the mapping uses
// slots 2..31 and 34..43.
func pinSlot(pos, digit int) int {
	s := 2 + pos*10 + digit
	if s >= 32 {
		s += 2
	}
	return s
}

// pinFromSlot inverts pinSlot, returning (pos, digit, ok).
func pinFromSlot(slot int) (int, int, bool) {
	s := slot
	if s >= 34 {
		s -= 2
	} else if s >= 32 {
		return 0, 0, false // payload dump slots
	}
	s -= 2
	if s < 0 || s >= 40 {
		return 0, 0, false
	}
	return s / 10, s % 10, true
}

// HistoryTheft runs Ablation E on a BCM2711: the victim checks a PIN by
// touching one page per digit (a classic secret-dependent table lookup);
// the attacker Volt Boots and dumps the TLB via RAMINDEX, reading the
// touched page numbers straight out of retained microarchitectural state.
func HistoryTheft(seed uint64) (*HistoryTheftResult, error) {
	b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	pin := []int{int(seed) % 10, int(seed>>4) % 10, int(seed>>8) % 10, int(seed>>12) % 10}

	// Victim: touch one page per digit, the page encoding (pos, digit).
	var src strings.Builder
	for pos, digit := range pin {
		page := (pinPageBase >> 12) + pinSlot(pos, digit)
		fmt.Fprintf(&src, "        LDIMM X0, #%#x\n        LDR X1, [X0]\n", page<<12)
	}
	src.WriteString("        HLT #0\n")
	words, err := isa.Assemble(soc.PayloadBase, src.String())
	if err != nil {
		return nil, err
	}
	if err := core.RunVictim(b, &soc.BootImage{Words: words}, 1_000_000); err != nil {
		return nil, err
	}

	// Attack: standard Volt Boot power cycle, then dump the TLB. The
	// extraction payload sweeps RAMINDEX over the TLB entries.
	ext, err := core.VoltBootTLB(b, core.DefaultAttackConfig())
	if err != nil {
		return nil, err
	}
	res := &HistoryTheftResult{PIN: pin, Trace: ext.Trace}
	// Post-processing: valid entries hold page numbers; invert the
	// victim's layout (ignoring slots the payload itself contaminates).
	res.RecoveredPIN = []int{-1, -1, -1, -1}
	basePage := uint64(pinPageBase >> 12)
	for _, e := range ext.PerCore[0] {
		if e&1 != 1 {
			continue
		}
		res.TLBEntriesRecovered++
		page := e >> 1
		if page < basePage || page >= basePage+64 {
			continue
		}
		if pos, digit, ok := pinFromSlot(int(page - basePage)); ok {
			res.RecoveredPIN[pos] = digit
		}
	}
	return res, nil
}

// String renders Ablation E.
func (r *HistoryTheftResult) String() string {
	return fmt.Sprintf(
		"Ablation E: microarchitectural history theft (TLB dump after Volt Boot)\n"+
			"  victim PIN (secret-dependent page accesses): %v\n"+
			"  recovered from retained TLB entries:          %v\n"+
			"  valid TLB entries in dump: %d; full PIN recovered: %v\n",
		r.PIN, r.RecoveredPIN, r.TLBEntriesRecovered, r.Recovered())
}

// MCUAttackResult extends the attack to the microcontroller end of
// §5.2.1 ("SRAM is available in every computing device"): a Cortex-M
// class part whose SRAM *is* main memory, behind its own domain, with
// the 2 KB boot-phase clobber §6.2 reports for such devices.
type MCUAttackResult struct {
	// AvailablePct is the fraction of SRAM an attacker reads intact.
	AvailablePct float64
	// ClobberedBytes is the boot ROM's scratchpad footprint.
	ClobberedBytes int
	// ProbeAmps is the current the attack needed (no cores on the SRAM
	// domain → no surge → a trivial supply suffices).
	ProbeAmps float64
}

// MCUAttack stages firmware state in the MCU's SRAM main memory, runs the
// Volt Boot flow against the SRAM domain pad, and measures availability.
func MCUAttack(seed uint64) (*MCUAttackResult, error) {
	spec := soc.GenericMCU()
	b, _, err := newBoard(spec, soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	if err := b.SoC.Boot(nil); err != nil {
		return nil, err
	}
	state := make([]byte, spec.IRAMBytes)
	for i := range state {
		state[i] = byte(i*31 + 5)
	}
	if err := b.SoC.JTAGWriteIRAM(0, state); err != nil {
		return nil, err
	}
	cfg := core.DefaultAttackConfig()
	cfg.Probe.MaxAmps = 0.05 // a coin-cell could hold this domain
	ext, err := core.VoltBootIRAM(b, cfg)
	if err != nil {
		return nil, err
	}
	intact := 0
	for i := range state {
		if ext.Image[i] == state[i] {
			intact++
		}
	}
	clobbered := 0
	for _, r := range spec.BootROMClobbers {
		clobbered += r.Len()
	}
	return &MCUAttackResult{
		AvailablePct:   float64(intact) / float64(len(state)) * 100,
		ClobberedBytes: clobbered,
		ProbeAmps:      cfg.Probe.MaxAmps,
	}, nil
}

// String renders the MCU extension result.
func (r *MCUAttackResult) String() string {
	return fmt.Sprintf(
		"MCU extension: Volt Boot on a Cortex-M-class part (SRAM = main memory)\n"+
			"  SRAM available after boot-phase clobber: %.2f%% (boot ROM uses %d KB)\n"+
			"  probe requirement: %.0f mA — no cores on the SRAM domain, no surge\n"+
			"  (§6.2: such parts \"usually clobber 2KB SRAM at the boot phase\")\n",
		r.AvailablePct, r.ClobberedBytes/1024, r.ProbeAmps*1000)
}

// CaSELockResult is the §7.1.2 cache-locking note: with CaSE-style way
// locking, the kernel cannot evict the secret-holding lines, so Volt Boot
// retrieves the entire plaintext binary even under heavy noise.
type CaSELockResult struct {
	// LockedAccuracy is element recovery with the secret way locked.
	LockedAccuracy float64
	// UnlockedAccuracy is the same workload without locking.
	UnlockedAccuracy float64
}

// CaSELock stages a 16 KB "plaintext crypto binary" (one full way) in the
// d-cache, optionally locks that way, runs a noisy kernel workload, and
// extracts.
func CaSELock(seed uint64) (*CaSELockResult, error) {
	run := func(locked bool) (float64, error) {
		spec := soc.BCM2711()
		b, _, err := newBoard(spec, soc.Options{}, seed)
		if err != nil {
			return 0, err
		}
		if err := b.SoC.Boot(nil); err != nil {
			return 0, err
		}
		cc := b.SoC.Cores[0]
		cc.L1D.InvalidateAll()
		cc.L1I.InvalidateAll()
		cc.L1D.SetEnabled(true)
		cc.L1I.SetEnabled(true)

		// The CaSE secret: 16KB of distinguishable elements, loaded so it
		// occupies way 0 of every set, then locked in.
		n := 16 * 1024 / 8
		k := kernel.New(b.SoC, kernel.DefaultConfig(seed))
		data := make([]byte, n*8)
		for i := 0; i < n; i++ {
			copy(data[i*8:], elemValue(9, i))
		}
		if err := k.StageFile(0, 0x380000, 0x300000, data); err != nil {
			return 0, err
		}
		if locked {
			cc.L1D.LockWay(0, true)
		}

		// Heavy competing workload: a cache-sized array benchmark plus
		// default kernel noise.
		bn := 32 * 1024 / 8
		bench := make([]byte, bn*8)
		for i := 0; i < bn; i++ {
			copy(bench[i*8:], elemValue(1, i))
		}
		if err := k.StageFile(0, 0x180000, 0x100000, bench); err != nil {
			return 0, err
		}
		prog, err := kernel.ArrayBenchmarkProgram(soc.PayloadBase, 0x100000, bn, 20)
		if err != nil {
			return 0, err
		}
		for i, w := range prog {
			b.SoC.WriteDRAM(int(soc.PayloadBase)+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
		cc.CPU.Reset(soc.PayloadBase)
		if err := k.RunWithNoise(0, 100_000_000); err != nil {
			return 0, err
		}

		ext, err := core.VoltBootCaches(b, core.DefaultAttackConfig())
		if err != nil {
			return 0, err
		}
		found := 0
		for i := 0; i < n; i++ {
			e := elemValue(9, i)
			for _, way := range ext.Dumps[0].L1D {
				if analysis.CountAlignedOccurrences(way, e) > 0 {
					found++
					break
				}
			}
		}
		return float64(found) / float64(n), nil
	}

	locked, err := run(true)
	if err != nil {
		return nil, err
	}
	unlocked, err := run(false)
	if err != nil {
		return nil, err
	}
	return &CaSELockResult{LockedAccuracy: locked, UnlockedAccuracy: unlocked}, nil
}

// String renders the cache-locking comparison.
func (r *CaSELockResult) String() string {
	return fmt.Sprintf(
		"§7.1.2 note: Volt Boot vs CaSE-style cache locking\n"+
			"  secret locked into way 0:  %s of the plaintext binary extracted\n"+
			"  same workload, no locking: %s (kernel evictions take their toll)\n"+
			"  (locking *helps the attacker*: the secret cannot be evicted)\n",
		pct(r.LockedAccuracy), pct(r.UnlockedAccuracy))
}
