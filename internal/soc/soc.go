// Package soc assembles the simulated systems-on-chip the Volt Boot
// reproduction attacks: CPU cores (interpreted VBA64), SRAM-backed L1/L2
// caches and register files, iRAM, boot ROM behaviour, a DRAM-backed
// memory system, the separated power domains of Figure 2, and the §8
// countermeasure knobs.
//
// The package is deliberately device-accurate where the paper depends on
// device behaviour: Broadcom parts boot their VideoCore first (clobbering
// the shared L2 but never the software-enabled L1s — §6.2), the i.MX53
// boots from mask ROM using part of its iRAM as scratchpad (Figure 10's
// error clusters), and boot firmware dirties the general-purpose
// registers but never the vector registers (§7.2).
package soc

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sram"
	"repro/internal/xrand"
)

// Options are the §8 countermeasure switches, all off by default (the
// paper's measured reality: "hardware memory reset at boot-phase is
// uncommon").
type Options struct {
	// MBISTReset zeroes every on-chip SRAM array during boot, the
	// hardware-driven reset the paper recommends.
	MBISTReset bool
	// PowerToggleReset internally toggles SRAM power at reset, erasing
	// contents to the fingerprint state regardless of external probes.
	PowerToggleReset bool
	// TrustZone enforces NS-bit checks on RAMINDEX reads and pins
	// externally booted payloads in the non-secure state.
	TrustZone bool
	// AuthenticatedBoot refuses boot images that are not signed with the
	// OEM key, removing the attacker's post-reboot extraction vehicle.
	AuthenticatedBoot bool
	// TCGReset implements the TCG Platform Reset Attack Mitigation the
	// paper cites against BootJacker-style warm reboots: firmware wipes
	// main memory on any boot that was not preceded by an orderly
	// shutdown. It protects DRAM only — on-chip SRAM is out of its
	// reach, which is part of Volt Boot's point.
	TCGReset bool
}

// Core bundles one CPU (which owns its register-file SRAM array, Regs)
// with its private caches and microarchitectural buffers.
type Core struct {
	ID  int
	CPU *isa.CPU
	L1I *cache.Cache
	L1D *cache.Cache
	// TLB and BTB are small SRAM-backed history buffers in the core
	// power domain, readable via RAMINDEX like every other internal RAM.
	// TLB entries record recently translated page numbers; BTB entries
	// record recent branch targets. Both fill organically as the core
	// runs — and both survive a Volt Boot power cycle, leaking the
	// victim's access pattern (Ablation E).
	TLB *sram.Array
	BTB *sram.Array
	// lastFetch detects non-sequential fetches (taken branches) for BTB
	// updates. Microarchitectural flop, not SRAM.
	lastFetch uint64
	// tlbLastPage/tlbLastGen memoize the most recent TLB slot write:
	// sequential code re-translates the same page on every fetch, and
	// rewriting the identical entry word is a no-op the memo skips. The
	// stamp is the TLB array's own content generation (taken after our
	// write), so any other write, fill, power-up or decay event — anything
	// that could make the slot differ from what we last wrote — forces the
	// write again. Derived state, like predec.
	tlbLastPage uint64
	tlbLastGen  uint64

	// predec is the per-core predecoded i-stream: a direct-mapped table
	// of already-decoded instructions keyed by fetch address, each entry
	// stamped with the generation of the state that produced it (see
	// SoC.predecGen). Purely derived microarchitectural state — it holds
	// no content a fetch could not re-derive, lives outside the SRAM
	// retention physics, and is invalidated wholesale by generation
	// bumps rather than being snooped. Allocated by the core's first
	// FetchDecoded, so a core that never runs costs nothing.
	predec *[predecEntries]predecEntry

	// sblocks is the per-core superblock cache built over predec: straight-
	// line runs executed as a unit with validation hoisted to block entry
	// (see superblock.go). Lazily allocated by RunCoreQuantum; derived
	// state with the same invalidation story as predec.
	sblocks []sblock
}

// TLB/BTB geometry: entry counts are powers of two, 8 bytes per entry.
const (
	tlbEntries = 64
	btbEntries = 256
)

// predecEntries sizes the per-core predecode table: direct-mapped on
// word-aligned PC, 4096 entries = 16 KB of code reach, comfortably more
// than any experiment payload.
const predecEntries = 4096

// Predecode entry service modes: which level answered the install-time
// fetch, and therefore which generation counters guard the entry.
// Uncached DRAM and iRAM fetches install no entry: across the catalog,
// no such entry was ever hit.
const (
	predecNone = uint8(iota) // empty slot
	predecL1I                // enabled L1I hit at (way, set)
	predecL2                 // L1I off, enabled L2 hit at (way, set)
	predecROM                // mask ROM fetch (immutable)
)

type predecEntry struct {
	addr uint64 // fetch address
	gen  uint64 // predecGen(mode) at install time
	in   isa.Instr
	word uint32
	mode uint8
	way  int32 // resident way/set for cache-served entries
	set  int32
}

// BootImage is a payload offered to the boot chain (a kernel on USB mass
// storage for the Pis; irrelevant for i.MX53-style internal boot, whose
// attack path is JTAG). Firmware loads it at PayloadBase, the Raspberry
// Pi's kernel load address, and every core enters it there.
type BootImage struct {
	// Words is the machine code, loaded at PayloadBase.
	Words []uint32
	// EnableCaches asks the image's startup stub to invalidate and enable
	// the L1 caches before the payload runs. Victim software wants this;
	// extraction payloads leave it false so retained cache contents stay
	// untouched (§6.1 step 3A).
	EnableCaches bool
	// TrustedWorld asks to run in the TrustZone secure world. Under the
	// TrustZone countermeasure this requires a valid OEM Signature;
	// anything else (an attacker's USB payload) is pinned non-secure.
	TrustedWorld bool
	// Signature authenticates the image under the SoC's OEM key when
	// AuthenticatedBoot is enforced or TrustedWorld is requested.
	Signature uint64
}

// ErrUnsignedImage is returned by Boot when authenticated boot rejects a
// payload.
var ErrUnsignedImage = errors.New("soc: boot image signature invalid")

// ErrUnpowered is returned by Boot when the core domain is down.
var ErrUnpowered = errors.New("soc: cannot boot: core domain unpowered")

// SoC is one simulated system-on-chip instance.
type SoC struct {
	Env  *sim.Env
	Spec DeviceSpec
	Opts Options

	//voltvet:nosnap restored element-wise through the core pointers (CPU state, lastFetch); the slice itself is wiring
	Cores []*Core
	// L2 is the shared second-level cache.
	//voltvet:nosnap a cache with its own CaptureAux/RestoreAux pair and arrays, enumerated by the SoC cache and array lists
	L2 *cache.Cache
	// IRAM is the on-chip RAM (nil unless the spec has one).
	//voltvet:nosnap an sram.Array with its own snapshot pair, enumerated by the SoC array list
	IRAM *sram.Array
	// DRAM is main memory.
	DRAM *dram.Module

	// CoreDom and MemDom are the SRAM-relevant power domains; IODom
	// exists for Figure 2 completeness.
	CoreDom, MemDom, IODom *power.Domain

	//voltvet:nosnap boot regenerates it from the device seed and image install precedes capture; content is invariant across a trial tail
	rom []byte

	seed      uint64
	oemKey    uint64
	bootCount int
	// orderlyDown is set by OrderlyShutdown and consumed by the next
	// Boot: the TCG reset mitigation skips its wipe only after a clean
	// shutdown.
	orderlyDown bool
	// barriers counts DSB/ISB executions (the §6.1 payload requirement).
	barriers uint64

	// arrays lists every on-chip SRAM array and caches every cache level,
	// each in a fixed order; New builds both once for the boot resets and
	// the snapshot pair.
	arrays []*sram.Array
	caches []*cache.Cache

	// mutGen counts SoC-level events that can mutate instruction memory
	// behind the predecode cache's back: boots (ROM scratchpad, MBIST,
	// VideoCore, payload load), orderly shutdowns, and every rail change
	// on the core or memory domain (power cycles scramble SRAM-resident
	// code). It feeds predecGen for the L1I and L2 modes, so any such
	// event invalidates every predecoded instruction but the mask-ROM
	// ones. A snapshot restore does not bump it: a restore that rewinds a
	// cache's arrays bumps that cache's content generation instead.
	//voltvet:nosnap derived-state generation, monotonic across rewinds: boots, orderly shutdowns and rail watchers bump it, and a restore's rewound cache arrays retire entries through the caches' content generations
	mutGen uint64
}

var _ isa.Bus = (*SoC)(nil)
var _ isa.DecodedBus = (*SoC)(nil)
var _ isa.SysOps = (*SoC)(nil)

// New builds an SoC from its spec. All SRAM arrays are created and
// attached to the appropriate power domains; everything starts unpowered
// until a board (or test) raises the domains.
func New(env *sim.Env, spec DeviceSpec, opts Options, seed uint64) (*SoC, error) {
	s := &SoC{Env: env, Spec: spec, Opts: opts, seed: seed}
	kst := seed
	s.oemKey = xrand.SplitMix64(&kst) ^ 0x0EA0_0EA0_0EA0_0EA0

	s.CoreDom = power.NewDomain(env, spec.CoreDomainName, spec.CoreVolts, true)
	s.MemDom = power.NewDomain(env, spec.MemDomainName, spec.MemVolts, false)
	s.IODom = power.NewDomain(env, "VDD_IO", 3.3, false)
	// Every rail excursion on an SRAM-bearing domain may rewrite code
	// memory (decay, fingerprints), so it must invalidate the predecoded
	// i-stream. The watcher is an ordinary load: probes, glitches, and
	// supply swaps all reach it through the same path as the arrays.
	s.CoreDom.Attach(&railWatcher{name: spec.CoreDomainName + ".predec-watch", gen: &s.mutGen})
	s.MemDom.Attach(&railWatcher{name: spec.MemDomainName + ".predec-watch", gen: &s.mutGen})

	s.DRAM = dram.NewModule(env, spec.SoCName+".dram", spec.DRAMBytes, seed)
	s.DRAM.PowerOff() // until the memory domain comes up
	s.MemDom.Attach(&dramLoad{mod: s.DRAM, minVolts: spec.MemVolts * 0.9})

	l2, err := cache.New(env, spec.L2, seed, s.DRAM)
	if err != nil {
		return nil, err
	}
	s.L2 = l2
	for _, a := range l2.Arrays() {
		s.MemDom.Attach(a)
	}

	if spec.IRAMBytes > 0 {
		s.IRAM = sram.NewArray(env, spec.SoCName+".iram", spec.IRAMBytes*8, seed)
		s.MemDom.Attach(s.IRAM)
	}

	for i := 0; i < spec.Cores; i++ {
		l1dCfg := spec.L1D
		l1dCfg.Name = fmt.Sprintf("core%d.%s", i, spec.L1D.Name)
		l1iCfg := spec.L1I
		l1iCfg.Name = fmt.Sprintf("core%d.%s", i, spec.L1I.Name)
		coreSeed := seed + uint64(i)*0x1000
		l1d, err := cache.New(env, l1dCfg, coreSeed, s.L2)
		if err != nil {
			return nil, err
		}
		l1i, err := cache.New(env, l1iCfg, coreSeed+1, s.L2)
		if err != nil {
			return nil, err
		}
		regArr := sram.NewArray(env, fmt.Sprintf("core%d.regfile", i), isa.RegFileBytes*8, coreSeed+2)
		core := &Core{ID: i, L1I: l1i, L1D: l1d}
		core.TLB = sram.NewArray(env, fmt.Sprintf("core%d.tlb", i), tlbEntries*64, coreSeed+3)
		core.BTB = sram.NewArray(env, fmt.Sprintf("core%d.btb", i), btbEntries*64, coreSeed+4)
		core.CPU = isa.NewCPU(i, regArr, s, s)
		s.Cores = append(s.Cores, core)

		// L1 caches, registers, TLB and BTB all draw from the core domain.
		for _, a := range l1d.Arrays() {
			s.CoreDom.Attach(a)
		}
		for _, a := range l1i.Arrays() {
			s.CoreDom.Attach(a)
		}
		s.CoreDom.Attach(regArr)
		s.CoreDom.Attach(core.TLB)
		s.CoreDom.Attach(core.BTB)
	}

	// Mask ROM contents: deterministic firmware bytes (nonvolatile).
	s.rom = make([]byte, 64*1024)
	xrand.Derive(seed, "bootrom").Bytes(s.rom)

	for _, c := range s.Cores {
		s.arrays = append(s.arrays, c.L1D.Arrays()...)
		s.arrays = append(s.arrays, c.L1I.Arrays()...)
		s.arrays = append(s.arrays, c.CPU.Regs, c.TLB, c.BTB)
		s.caches = append(s.caches, c.L1D, c.L1I)
	}
	s.arrays = append(s.arrays, s.L2.Arrays()...)
	s.caches = append(s.caches, s.L2)
	if s.IRAM != nil {
		s.arrays = append(s.arrays, s.IRAM)
	}
	return s, nil
}

// dramLoad adapts the DRAM module to the power.Load interface: DRAM needs
// most of its nominal rail to refresh; below that it is off and decaying.
type dramLoad struct {
	mod      *dram.Module
	minVolts float64
}

func (d *dramLoad) Name() string { return d.mod.Name() }

func (d *dramLoad) SetRail(v float64) {
	if v >= d.minVolts {
		d.mod.PowerOn()
	} else {
		d.mod.PowerOff()
	}
}

// railWatcher bumps a generation counter on every rail change pushed to
// its domain — the predecode cache's view of power events.
type railWatcher struct {
	name string
	gen  *uint64
}

func (r *railWatcher) Name() string { return r.name }

func (r *railWatcher) SetRail(float64) { *r.gen++ }

// Powered reports whether the core domain is up.
func (s *SoC) Powered() bool {
	return s.CoreDom.Volts() >= s.Spec.CoreVolts*0.9
}

// SignImage computes the OEM signature for a boot image — available to
// the legitimate vendor, not to the attacker.
func (s *SoC) SignImage(img *BootImage) uint64 {
	h := s.oemKey
	for _, w := range img.Words {
		h ^= uint64(w)
		h *= 0x100000001B3
	}
	return h
}

// Boot runs the device's boot chain and hands control of every core to
// the image: clobber/reset steps the hardware performs, firmware's use of
// the general-purpose registers, VideoCore or ROM scratchpad effects, and
// the payload load. The cores are left Reset at the entry point; run them
// with RunCore.
func (s *SoC) Boot(img *BootImage) error {
	if !s.Powered() {
		return ErrUnpowered
	}
	s.bootCount++
	s.mutGen++ // boots rewrite code memory in several ways; drop all predecode

	if s.Opts.PowerToggleReset {
		// The SoC gates each SRAM macro's internal supply off and on
		// again during reset. An external probe holds the *pin*, but the
		// gate sits behind it, so contents are lost regardless.
		for _, a := range s.arrays {
			restore := a.RailVolts()
			a.SetRail(0)
			s.Env.Advance(1 * sim.Millisecond)
			a.SetRail(restore)
		}
	}
	if s.Opts.MBISTReset {
		for _, a := range s.arrays {
			if a.Powered() {
				a.Fill(0)
			}
		}
	}

	if img != nil && s.Opts.AuthenticatedBoot && img.Signature != s.SignImage(img) {
		return ErrUnsignedImage
	}
	// Secure-world entry always requires the OEM signature when TrustZone
	// is enforced, independent of the full authenticated-boot policy.
	secureWorld := img != nil && img.TrustedWorld
	if secureWorld && s.Opts.TrustZone && img.Signature != s.SignImage(img) {
		return ErrUnsignedImage
	}

	// VideoCore initialization (Broadcom): the video core runs its own
	// firmware out of the shared L2, clobbering whatever it held (§6.2).
	if s.Spec.HasVideoCore && s.MemDom.Volts() > 0 {
		junk := xrand.Derive(s.seed+uint64(s.bootCount), "videocore")
		buf := make([]byte, s.L2.WayBytes())
		arrs := s.L2.Arrays()
		for w := 0; w < s.Spec.L2.Ways; w++ {
			junk.Bytes(buf)
			// The video core's working set lands in the data RAMs via
			// ordinary allocation; writing the arrays directly models the
			// net effect on retained contents.
			arrs[w].WriteBytes(0, buf)
		}
		s.L2.InvalidateAll()
		s.L2.SetEnabled(true)
	}

	// Internal boot ROM scratchpad (i.MX53): parts of the iRAM are
	// overwritten before any debugger or external code can look (§6.2).
	if s.IRAM != nil && s.MemDom.Volts() > 0 {
		scratch := xrand.Derive(s.seed+uint64(s.bootCount), "romscratch")
		for _, r := range s.Spec.BootROMClobbers {
			buf := make([]byte, r.Len())
			scratch.Bytes(buf)
			s.IRAM.WriteBytes(r.Start, buf)
		}
	}

	// TCG reset mitigation: wipe DRAM unless the previous power-down was
	// orderly. Abrupt disconnects and forced warm reboots both trip it.
	if s.Opts.TCGReset && !s.orderlyDown && s.DRAM.Powered() {
		s.DRAM.Write(0, make([]byte, s.Spec.DRAMBytes))
		// The wipe goes through the memory system; stale L2 lines would
		// resurrect old data, so firmware flushes it too.
		s.L2.InvalidateAll()
	}
	s.orderlyDown = false

	if img == nil {
		return nil
	}

	// Firmware copies the payload into DRAM through the uncached path.
	for i, w := range img.Words {
		a := PayloadBase + uint64(i)*4
		if err := s.writeDRAMDirect(a, w); err != nil {
			return fmt.Errorf("soc: loading payload: %w", err)
		}
	}

	// Boot firmware runs on each core before the payload: it uses the
	// general-purpose registers freely (clobbering whatever survived the
	// power cycle) but never touches the vector registers — §7.2's
	// enabler.
	junk := xrand.Derive(s.seed+uint64(s.bootCount), "firmware-regs")
	for _, core := range s.Cores {
		for i := 0; i < 31; i++ {
			core.CPU.SetX(i, junk.Uint64())
		}
		core.CPU.Reset(PayloadBase)
		core.CPU.NSLocked = s.Opts.TrustZone && !secureWorld
		if img.EnableCaches {
			core.L1D.InvalidateAll()
			core.L1I.InvalidateAll()
			core.L1D.SetEnabled(true)
			core.L1I.SetEnabled(true)
		} else {
			core.L1D.SetEnabled(false)
			core.L1I.SetEnabled(false)
		}
	}
	return nil
}

// ProgramROM replaces the start of the mask ROM with the given firmware
// words (fetched from ROMBase). Real silicon masks its ROM at the fab;
// the simulator exposes the step so experiments can install a specific
// boot ROM — e.g. the glitch campaigns' secure-boot verifier — before
// the scenario runs. It is a build-time operation, not an architectural
// write: call it before capturing snapshots (ROM bytes are nonvolatile
// and outside snapshot state, exactly like the spec).
func (s *SoC) ProgramROM(words []uint32) error {
	if len(words)*4 > len(s.rom) {
		return fmt.Errorf("soc: ROM image %d words exceeds %d-byte ROM", len(words), len(s.rom))
	}
	for i, w := range words {
		off := i * 4
		s.rom[off] = byte(w)
		s.rom[off+1] = byte(w >> 8)
		s.rom[off+2] = byte(w >> 16)
		s.rom[off+3] = byte(w >> 24)
	}
	// ROM-mode derived state is stamped with the constant generation 0
	// (predecGen treats the mask ROM as immutable), so rewriting the ROM
	// must drop stale entries by hand — a generation bump cannot retire
	// them.
	for _, c := range s.Cores {
		if c.predec == nil {
			continue // the core never fetched: no entries, and every block is empty
		}
		for i := range c.predec {
			if c.predec[i].mode == predecROM {
				c.predec[i] = predecEntry{}
			}
		}
		for i := range c.sblocks {
			if c.sblocks[i].mode == predecROM {
				c.sblocks[i].n = 0
			}
		}
	}
	return nil
}

// RunCore executes core id until it halts or maxInstr retire, through
// the superblock dispatcher. It returns an isa.RunawayError if the budget
// is exhausted without a halt.
func (s *SoC) RunCore(id int, maxInstr uint64) error {
	if id < 0 || id >= len(s.Cores) {
		return fmt.Errorf("soc: core %d out of range", id)
	}
	n, err := s.RunCoreQuantum(id, maxInstr)
	if err != nil {
		return err
	}
	if cpu := s.Cores[id].CPU; !cpu.Halted && n >= maxInstr {
		return &isa.RunawayError{PC: cpu.PC, Max: maxInstr}
	}
	return nil
}

// RunAllCores executes every core in turn (the interpreter is in-order
// and the experiments' cores share only the L2, so sequential execution
// is equivalent for them).
func (s *SoC) RunAllCores(maxInstr uint64) error {
	for _, c := range s.Cores {
		if err := s.RunCore(c.ID, maxInstr); err != nil {
			return fmt.Errorf("soc: core %d: %w", c.ID, err)
		}
	}
	return nil
}

// OrderlyShutdown is the software power-down path: it purges residual
// secrets (DC ZVA over the d-caches, invalidate i-caches, zero registers)
// before power is expected to drop. Volt Boot's abrupt disconnect is
// precisely the path that skips this (§8 "purging residual memory").
func (s *SoC) OrderlyShutdown() {
	s.mutGen++ // the purge overwrites SRAM-resident code
	for _, c := range s.Cores {
		for _, arr := range c.L1D.Arrays() {
			if arr.Powered() {
				arr.Fill(0)
			}
		}
		for _, arr := range c.L1I.Arrays() {
			if arr.Powered() {
				arr.Fill(0)
			}
		}
		if c.CPU.Regs.Powered() {
			c.CPU.Regs.Fill(0)
		}
	}
	if s.IRAM != nil && s.IRAM.Powered() {
		s.IRAM.Fill(0)
	}
	s.orderlyDown = true
}

// --- address routing -----------------------------------------------------

func (s *SoC) inDRAM(addr uint64) bool { return addr < uint64(s.Spec.DRAMBytes) }

func (s *SoC) inIRAM(addr uint64) bool {
	return s.IRAM != nil && addr >= s.Spec.IRAMBase &&
		addr < s.Spec.IRAMBase+uint64(s.Spec.IRAMBytes)
}

func (s *SoC) inROM(addr uint64) bool {
	return addr >= ROMBase && addr < ROMBase+uint64(len(s.rom))
}

func (s *SoC) writeDRAMDirect(addr uint64, w uint32) error {
	if !s.inDRAM(addr) {
		return fmt.Errorf("soc: payload address %#x outside DRAM", addr)
	}
	s.DRAM.Write(int(addr), []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	return nil
}

// FetchInstr implements isa.Bus: instruction fetches go through the
// core's L1I for cacheable memory.
func (s *SoC) FetchInstr(core int, addr uint64) (uint32, error) {
	v, err := s.access(core, addr, 4, false, 0, true)
	return uint32(v), err
}

// FetchDecoded implements isa.DecodedBus: the predecoded i-stream fast
// path. A hit returns the cached decode while replaying exactly the side
// effects the full fetch would have had — the TLB/BTB history writes and
// the serving cache's hit counter and LRU touch — so the architectural
// and microarchitectural state evolve bit-identically to FetchInstr +
// Decode. The generation stamp guarantees the hit is sound: if no
// guarding counter moved since install, the same level would serve the
// same word from the same (way, set) today.
func (s *SoC) FetchDecoded(core int, addr uint64) (isa.Instr, uint32, error) {
	if core < 0 || core >= len(s.Cores) {
		return isa.Instr{}, 0, fmt.Errorf("soc: core %d out of range", core)
	}
	c := s.Cores[core]
	if c.predec == nil {
		c.predec = new([predecEntries]predecEntry)
	}
	e := &c.predec[(addr>>2)&(predecEntries-1)]
	if e.mode != predecNone && e.addr == addr && e.gen == s.predecGen(c, e.mode) {
		switch e.mode {
		case predecL1I:
			s.updateHistoryBuffers(c, addr, true)
			c.L1I.TouchFetchHit(int(e.way), int(e.set))
		case predecL2:
			s.updateHistoryBuffers(c, addr, true)
			s.L2.TouchFetchHit(int(e.way), int(e.set))
		case predecROM:
			// ROM fetches have no history-buffer or cache side effects.
		}
		return e.in, e.word, nil
	}
	word, err := s.FetchInstr(core, addr)
	if err != nil {
		return isa.Instr{}, 0, err
	}
	in := isa.Decode(word)
	s.installPredec(c, e, addr, in, word)
	return in, word, nil
}

// installPredec records a freshly fetched-and-decoded instruction in the
// core's predecode table, classified by the level that served it. The
// generation is sampled *after* the fetch, so a fill triggered by the
// fetch itself guards the entry correctly. Uncached DRAM, iRAM and
// unmapped fetches install nothing.
func (s *SoC) installPredec(c *Core, e *predecEntry, addr uint64, in isa.Instr, word uint32) {
	mode := predecNone
	var way, set int
	switch {
	case s.inDRAM(addr):
		switch {
		case c.L1I.Enabled():
			var ok bool
			if way, set, ok = c.L1I.ResidentWaySet(addr); !ok {
				return // fetch raced a maintenance op; skip caching
			}
			c.L1I.MarkFetched(way, set)
			mode = predecL1I
		case s.L2.Enabled():
			var ok bool
			if way, set, ok = s.L2.ResidentWaySet(addr); !ok {
				return
			}
			// From here on a data write into this line (a store, or an L1D
			// writeback), or a fill that evicts it, bumps the L2's content
			// generation and retires the entry; writes into and fills of
			// slots no entry was fetched from do not.
			s.L2.MarkFetched(way, set)
			mode = predecL2
		default:
			return
		}
	case s.inROM(addr):
		mode = predecROM
	default:
		return
	}
	// Field by field: a composite literal would be built in a temporary
	// and block-copied into the table.
	e.addr = addr
	e.gen = s.predecGen(c, mode)
	e.in = in
	e.word = word
	e.mode = mode
	e.way = int32(way)
	e.set = int32(set)
}

// predecGen returns the current generation guarding entries of the given
// mode for core c: the sum of every monotonic counter whose movement
// could change what a fetch in that mode observes or which level serves
// it. Sums of monotonic counters are monotonic, so a stamp comparison
// detects "anything moved".
func (s *SoC) predecGen(c *Core, mode uint8) uint64 {
	switch mode {
	case predecL1I:
		// Resident-line hits: only L1I content events (fills, evictions,
		// maintenance, enable toggles) or SoC-level mutations can change
		// the outcome. Data-side store traffic does not — exactly like
		// real hardware, where stale i-lines persist until IC IALLU.
		return c.L1I.ContentGen() + s.mutGen
	case predecL2:
		// L1I's counter is included because re-enabling the L1I reroutes
		// fetches away from the L2. The L2's counter moves on stores and
		// fills only when they land in or evict a line an entry was
		// fetched from (see installPredec), so a payload streaming loads
		// and stores through data lines keeps its predecoded loop.
		return c.L1I.ContentGen() + s.L2.ContentGen() + s.mutGen
	case predecROM:
		return 0 // mask ROM is immutable
	}
	return ^uint64(0) // predecNone never validates
}

// Load implements isa.Bus.
func (s *SoC) Load(core int, addr uint64, size int) (uint64, error) {
	return s.access(core, addr, size, false, 0, false)
}

// Store implements isa.Bus.
func (s *SoC) Store(core int, addr uint64, size int, v uint64) error {
	_, err := s.access(core, addr, size, true, v, false)
	return err
}

// Load128 implements isa.Bus.
func (s *SoC) Load128(core int, addr uint64) ([2]uint64, error) {
	lo, err := s.access(core, addr, 8, false, 0, false)
	if err != nil {
		return [2]uint64{}, err
	}
	hi, err := s.access(core, addr+8, 8, false, 0, false)
	return [2]uint64{lo, hi}, err
}

// Store128 implements isa.Bus.
func (s *SoC) Store128(core int, addr uint64, v [2]uint64) error {
	if _, err := s.access(core, addr, 8, true, v[0], false); err != nil {
		return err
	}
	_, err := s.access(core, addr+8, 8, true, v[1], false)
	return err
}

func (s *SoC) access(core int, addr uint64, size int, write bool, wdata uint64, ifetch bool) (uint64, error) {
	if core < 0 || core >= len(s.Cores) {
		return 0, fmt.Errorf("soc: core %d out of range", core)
	}
	c := s.Cores[core]
	if h := c.CPU.Hooks; h != nil && h.Sink != nil && !ifetch {
		// The power-trace bus tap: the issuing core's sink sees its
		// data-side traffic, loads and stores, without touching cache,
		// history or memory state. Instruction fetches stay off it: a
		// predecode hit never reaches this path, so counting the misses
		// would make a trace depend on derived state (DESIGN.md §6).
		h.Sink.BusAccess(addr, size, write, wdata)
	}
	if s.inDRAM(addr) || s.inIRAM(addr) {
		s.updateHistoryBuffers(c, addr, ifetch)
	}
	switch {
	case s.inDRAM(addr):
		which := c.L1D
		if ifetch {
			which = c.L1I
		}
		if !which.Enabled() {
			// Architecturally, an access with the L1 off goes straight to
			// the next level: the L2 when enabled, else memory. (Routing
			// here rather than through the cache's line-granular bypass
			// keeps uncached extraction payloads fast.)
			if s.L2.Enabled() {
				return s.L2.Access(addr, size, write, wdata, c.CPU.Secure())
			}
			if write {
				s.DRAM.WriteUintN(int(addr), size, wdata)
				return 0, nil
			}
			return s.DRAM.ReadUintN(int(addr), size), nil
		}
		return which.Access(addr, size, write, wdata, c.CPU.Secure())
	case s.inIRAM(addr):
		// OCRAM is treated as non-cacheable device memory; JTAG and CPU
		// share one coherent view.
		off := int(addr - s.Spec.IRAMBase)
		if off+size > s.Spec.IRAMBytes {
			return 0, fmt.Errorf("soc: iRAM access at %#x size %d out of range", addr, size)
		}
		if write {
			s.IRAM.WriteUintN(off, size, wdata)
			return 0, nil
		}
		return s.IRAM.ReadUintN(off, size), nil
	case s.inROM(addr):
		if write {
			return 0, fmt.Errorf("soc: write to mask ROM at %#x", addr)
		}
		off := int(addr - ROMBase)
		if off+size > len(s.rom) {
			return 0, fmt.Errorf("soc: ROM access at %#x size %d out of range", addr, size)
		}
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(s.rom[off+i]) << (8 * i)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("soc: unmapped address %#x", addr)
	}
}

// updateHistoryBuffers records the access in the core's TLB (page
// translations) and, for non-sequential fetches, the BTB (branch
// targets). Entry format: bit 0 = valid, bits [63:1] = page number or
// target word address. These writes model the hardware's own bookkeeping,
// which is why the buffers hold victim history when the attacker arrives.
func (s *SoC) updateHistoryBuffers(c *Core, addr uint64, ifetch bool) {
	if c.TLB.Powered() {
		page := addr >> 12
		// Skip rewriting the slot when it provably still holds exactly
		// page<<1|1 from our own last write (see tlbLastPage). Writing the
		// identical word is content-neutral, so the skip is bit-identical.
		if page != c.tlbLastPage || c.TLB.Gen() != c.tlbLastGen {
			c.TLB.WriteUint64(int(page%tlbEntries)*8, page<<1|1)
			c.tlbLastPage = page
			c.tlbLastGen = c.TLB.Gen()
		}
	}
	if ifetch {
		if c.BTB.Powered() && c.lastFetch != 0 && addr != c.lastFetch+4 {
			slot := int(c.lastFetch >> 2 % btbEntries)
			c.BTB.WriteUint64(slot*8, addr<<1|1)
		}
		c.lastFetch = addr
	}
}

// --- isa.SysOps ----------------------------------------------------------

// DCZVA implements isa.SysOps.
func (s *SoC) DCZVA(core int, addr uint64) error {
	if !s.inDRAM(addr) {
		return fmt.Errorf("soc: DC ZVA outside cacheable memory at %#x", addr)
	}
	c := s.Cores[core]
	return c.L1D.ZeroLineVA(addr, c.CPU.Secure())
}

// DCCIVAC implements isa.SysOps.
func (s *SoC) DCCIVAC(core int, addr uint64) error {
	if !s.inDRAM(addr) {
		return fmt.Errorf("soc: DC CIVAC outside cacheable memory at %#x", addr)
	}
	return s.Cores[core].L1D.CleanInvalidateVA(addr)
}

// ICIALLU implements isa.SysOps.
func (s *SoC) ICIALLU(core int) {
	s.Cores[core].L1I.InvalidateAll()
}

// Barrier implements isa.SysOps (DSB/ISB). The interpreter is in-order;
// the count documents that payloads issue the barriers §6.1 requires.
func (s *SoC) Barrier(core int) { s.barriers++ }

// RAMIndexRead implements isa.SysOps: the CP15/RAMINDEX debug read of
// cache-internal RAMs (§2.1, §6.1). Requires EL3; with the TrustZone
// countermeasure, valid secure lines are unreadable from the non-secure
// state.
func (s *SoC) RAMIndexRead(core int, req uint64, el int) (uint64, bool) {
	if el < 3 {
		return 0, true
	}
	ramID, way, word := isa.UnpackRAMIndex(req)
	c := s.Cores[core]

	// TLB/BTB reads: flat arrays, way ignored.
	if ramID == isa.RAMIDTLB || ramID == isa.RAMIDBTB {
		arr := c.TLB
		entries := tlbEntries
		if ramID == isa.RAMIDBTB {
			arr, entries = c.BTB, btbEntries
		}
		if word < 0 || word >= entries {
			return 0, true
		}
		return arr.ReadUint64(word * 8), false
	}

	var target *cache.Cache
	var tagRead bool
	switch ramID {
	case isa.RAMIDL1IData:
		target = c.L1I
	case isa.RAMIDL1ITag:
		target, tagRead = c.L1I, true
	case isa.RAMIDL1DData:
		target = c.L1D
	case isa.RAMIDL1DTag:
		target, tagRead = c.L1D, true
	case isa.RAMIDL2Data:
		target = s.L2
	case isa.RAMIDL2Tag:
		target, tagRead = s.L2, true
	}
	if target == nil {
		return 0, true
	}
	if tagRead {
		v, err := target.RAMIndexTag(way, word)
		if err != nil {
			return 0, true
		}
		return v, false
	}
	if s.Opts.TrustZone && target.SecureLineAt(way, word) && !c.CPU.Secure() {
		return 0, true
	}
	v, err := target.RAMIndexData(way, word)
	if err != nil {
		return 0, true
	}
	return v, false
}

// --- JTAG ----------------------------------------------------------------

// ErrNoJTAG is returned for debug-port operations on parts without one.
var ErrNoJTAG = errors.New("soc: device has no JTAG port")

// JTAGReadIRAM reads n bytes of iRAM at offset off through the debug
// port — the i.MX53 extraction path (§7.3).
func (s *SoC) JTAGReadIRAM(off, n int) ([]byte, error) {
	if !s.Spec.HasJTAG {
		return nil, ErrNoJTAG
	}
	if s.IRAM == nil || !s.IRAM.Powered() {
		return nil, errors.New("soc: iRAM unpowered")
	}
	if off < 0 || n < 0 || off+n > s.Spec.IRAMBytes {
		return nil, fmt.Errorf("soc: JTAG read %d+%d out of %d-byte iRAM", off, n, s.Spec.IRAMBytes)
	}
	return s.IRAM.ReadBytes(off, n), nil
}

// JTAGWriteIRAM writes data to iRAM through the debug port.
func (s *SoC) JTAGWriteIRAM(off int, data []byte) error {
	if !s.Spec.HasJTAG {
		return ErrNoJTAG
	}
	if s.IRAM == nil || !s.IRAM.Powered() {
		return errors.New("soc: iRAM unpowered")
	}
	if off < 0 || off+len(data) > s.Spec.IRAMBytes {
		return fmt.Errorf("soc: JTAG write %d+%d out of %d-byte iRAM", off, len(data), s.Spec.IRAMBytes)
	}
	s.IRAM.WriteBytes(off, data)
	return nil
}

// ReadDRAM reads main memory through the shared L2. It sees the L2's
// lines, dirty ones included, but not the cores' L1Ds: a line a core
// stored to and still holds dirty in its L1D reads as the older copy in
// the L2 or the module, so a caller that needs a core's stores cleans
// that core's L1D first. With the L2 enabled, each read allocates and
// touches L2 lines as a load does. This is the experiment harness's view
// of what a payload exfiltrated; real attackers pull the same bytes over
// UART/SD. For the *physical* cell contents (cold boot experiments) read
// s.DRAM directly.
func (s *SoC) ReadDRAM(off, n int) []byte {
	out := make([]byte, n)
	// 8-byte chunks aligned to the address keep each Access inside one
	// cache line; consecutive touches of the same line collapse, which
	// preserves the replacement order the byte loop produced.
	for i := 0; i < n; {
		a := off + i
		size := 8 - a&7
		if size > n-i {
			size = n - i
		}
		v, err := s.L2.Access(uint64(a), size, false, 0, false)
		if err != nil {
			panic(fmt.Sprintf("soc: coherent DRAM read at %#x: %v", a, err))
		}
		for k := 0; k < size; k++ {
			out[i+k] = byte(v >> (8 * uint(k)))
		}
		i += size
	}
	return out
}

// WriteDRAM writes main memory through the shared L2, allocating the
// written lines dirty while it is enabled (used by the harness to stage
// victim data). It neither updates nor invalidates the cores' L1Ds: a
// core holding one of the written lines keeps reading its stale copy
// until the line leaves its L1D.
func (s *SoC) WriteDRAM(off int, b []byte) {
	for i := 0; i < len(b); {
		a := off + i
		size := 8 - a&7
		if size > len(b)-i {
			size = len(b) - i
		}
		var v uint64
		for k := 0; k < size; k++ {
			v |= uint64(b[i+k]) << (8 * uint(k))
		}
		if _, err := s.L2.Access(uint64(a), size, true, v, false); err != nil {
			panic(fmt.Sprintf("soc: coherent DRAM write at %#x: %v", a, err))
		}
		i += size
	}
}
