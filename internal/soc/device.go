package soc

import "repro/internal/cache"

// ByteRange is a half-open [Start, End) range of byte offsets.
type ByteRange struct {
	Start, End int
}

// Len returns the range length.
func (r ByteRange) Len() int { return r.End - r.Start }

// DomainID selects one of a device's power domains.
type DomainID int

// The three top-level domains of Figure 2.
const (
	CoreDomain DomainID = iota
	MemoryDomain
	IODomain
)

func (d DomainID) String() string {
	switch d {
	case CoreDomain:
		return "core"
	case MemoryDomain:
		return "memory"
	default:
		return "io"
	}
}

// DeviceSpec captures everything Table 2 and Table 3 record about an
// evaluation platform, plus the boot behaviour §6.2 measures.
type DeviceSpec struct {
	// Board is the platform name, e.g. "Raspberry Pi 4".
	Board string
	// SoCName is the silicon part, e.g. "BCM2711".
	SoCName string
	// CPUDesc describes the core cluster, e.g. "4×Cortex-A72".
	CPUDesc string
	// PMICName is the external power-management IC part.
	PMICName string
	// Cores is the number of CPU cores.
	Cores int

	// L1D and L1I are the per-core cache geometries.
	L1D, L1I cache.Config
	// L2 is the shared cache geometry.
	L2 cache.Config

	// IRAMBytes is the on-chip RAM size (0 if none); IRAMBase its bus
	// address.
	IRAMBytes int
	IRAMBase  uint64

	// DRAMBytes is the modelled main-memory size (scaled down from the
	// physical 512 MB–4 GB: the experiments touch well under a megabyte,
	// and the retention statistics are per-byte).
	DRAMBytes int

	// CoreDomainName/Volts and MemDomainName/Volts describe the two
	// SRAM-relevant power domains (Table 3).
	CoreDomainName string
	CoreVolts      float64
	MemDomainName  string
	MemVolts       float64

	// TestPad is the PCB probe point and PadDomain the domain it exposes.
	TestPad   string
	PadDomain DomainID
	// TargetMemories lists what the paper attacks on this platform.
	TargetMemories []string

	// HasVideoCore marks SoCs whose boot-time video core clobbers the
	// shared L2 (§6.2: Broadcom parts).
	HasVideoCore bool
	// HasJTAG enables the debug port used to dump iRAM.
	HasJTAG bool
	// BootROMClobbers are iRAM ranges the boot ROM uses as scratchpad and
	// therefore overwrites before external code can run (§6.2, Fig 10).
	BootROMClobbers []ByteRange

	// DisconnectSurgeAmps is the peak current the dying cores draw from a
	// held core rail at abrupt disconnect (§6: 2–3 A on the Pi 4).
	DisconnectSurgeAmps float64
}

// PayloadBase is the load address boot firmware places external payloads
// at (the Raspberry Pi convention of 0x80000).
const PayloadBase uint64 = 0x80000

// ROMBase is the bus address of the boot ROM.
const ROMBase uint64 = 0xFFFF0000

// BCM2711 returns the Raspberry Pi 4 platform spec (Table 2/3 row 2).
// Cache geometry follows the paper: 32 KB two-way d-cache with 64 B lines
// (Figure 3: one way = 256 sets × 512 bits = 16 KB), 48 KB three-way
// i-cache, 1 MB shared L2.
func BCM2711() DeviceSpec {
	return DeviceSpec{
		Board:    "Raspberry Pi 4",
		SoCName:  "BCM2711",
		CPUDesc:  "4×Cortex-A72",
		PMICName: "MxL7704",
		Cores:    4,
		L1D:      cache.Config{Name: "L1D", SizeBytes: 32 * 1024, Ways: 2, LineBytes: 64},
		L1I:      cache.Config{Name: "L1I", SizeBytes: 48 * 1024, Ways: 3, LineBytes: 64},
		L2:       cache.Config{Name: "L2", SizeBytes: 1024 * 1024, Ways: 16, LineBytes: 64},

		DRAMBytes: 4 * 1024 * 1024,

		CoreDomainName: "VDD_CORE",
		CoreVolts:      0.80,
		MemDomainName:  "VDD_MEM",
		MemVolts:       1.10,

		TestPad:        "TP15",
		PadDomain:      CoreDomain,
		TargetMemories: []string{"L1D", "L1I", "registers"},

		HasVideoCore:        true,
		DisconnectSurgeAmps: 2.5,
	}
}

// BCM2837 returns the Raspberry Pi 3 platform spec (Table 2/3 row 1).
func BCM2837() DeviceSpec {
	return DeviceSpec{
		Board:    "Raspberry Pi 3",
		SoCName:  "BCM2837",
		CPUDesc:  "4×Cortex-A53",
		PMICName: "PAM2306 (discrete)",
		Cores:    4,
		L1D:      cache.Config{Name: "L1D", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 64},
		// Footnote 4: the A53 i-cache stores instructions and ECC in each
		// line in an undocumented order, so dumps are scored before/after
		// rather than against plain machine code.
		L1I: cache.Config{Name: "L1I", SizeBytes: 32 * 1024, Ways: 2, LineBytes: 64, InlineECC: true},
		L2:  cache.Config{Name: "L2", SizeBytes: 512 * 1024, Ways: 16, LineBytes: 64},

		DRAMBytes: 4 * 1024 * 1024,

		CoreDomainName: "VDD_CORE",
		CoreVolts:      1.20,
		MemDomainName:  "VDD_MEM",
		MemVolts:       1.20,

		TestPad:        "PP58",
		PadDomain:      CoreDomain,
		TargetMemories: []string{"L1D", "L1I", "registers"},

		HasVideoCore:        true,
		DisconnectSurgeAmps: 2.0,
	}
}

// IMX53 returns the i.MX53 QSB platform spec (Table 2/3 row 3): a
// single-core Cortex-A8 multimedia SoC with 128 KB of iRAM (OCRAM) in the
// VDDAL1 memory domain, booting from internal ROM with a JTAG window.
// The boot ROM uses part of the iRAM as scratchpad: the paper localizes
// the resulting corruption to 0xF800083C–0xF80018CC plus a region at the
// end of the iRAM, ≈5 % in total.
func IMX53() DeviceSpec {
	return DeviceSpec{
		Board:    "i.MX53 QSB",
		SoCName:  "i.MX535",
		CPUDesc:  "1×Cortex-A8",
		PMICName: "DA9053",
		Cores:    1,
		L1D:      cache.Config{Name: "L1D", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 64},
		L1I:      cache.Config{Name: "L1I", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 64},
		// L2 modelled small: the experiment targets the iRAM.
		L2: cache.Config{Name: "L2", SizeBytes: 256 * 1024, Ways: 8, LineBytes: 64},

		IRAMBytes: 128 * 1024,
		IRAMBase:  0xF8000000,

		DRAMBytes: 4 * 1024 * 1024,

		CoreDomainName: "VCC_GP",
		CoreVolts:      1.10,
		MemDomainName:  "VDDAL1",
		MemVolts:       1.30,

		TestPad:        "SH13",
		PadDomain:      MemoryDomain,
		TargetMemories: []string{"iRAM"},

		HasJTAG: true,
		BootROMClobbers: []ByteRange{
			{Start: 0x083C, End: 0x18CC},              // boot ROM scratchpad (Fig 10)
			{Start: 128*1024 - 2048, End: 128 * 1024}, // boot stack at the top
		},
		DisconnectSurgeAmps: 1.5,
	}
}

// GenericMCU returns a Cortex-M-class microcontroller in the style of the
// parts §6.2 cites (SimpleLink MSP432 / SAM L11): SRAM *is* the main
// memory, the device boots from internal ROM, exposes an SWD debug port,
// and the boot phase clobbers 2 KB of the SRAM. It is not one of the
// paper's three evaluation platforms (Catalog stays faithful to Table 2)
// but extends the attack to the microcontroller end of "SRAM is in every
// computing device" (§5.2.1).
func GenericMCU() DeviceSpec {
	return DeviceSpec{
		Board:    "Generic MCU devboard",
		SoCName:  "CM4F-64",
		CPUDesc:  "1×Cortex-M4F (modelled)",
		PMICName: "onboard LDO",
		Cores:    1,
		// Microcontrollers run uncached; tiny caches exist in the model
		// only because every core has an L1 pair. They stay disabled.
		L1D: cache.Config{Name: "L1D", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64},
		L1I: cache.Config{Name: "L1I", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64},
		L2:  cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 2, LineBytes: 64},

		// The 64 KB SRAM main memory is the iRAM, in its own domain.
		IRAMBytes: 64 * 1024,
		IRAMBase:  0x20000000,

		DRAMBytes: 1024 * 1024, // external flash shadow for the model's payload path

		CoreDomainName: "VDD_CPU",
		CoreVolts:      1.20,
		MemDomainName:  "VDD_SRAM",
		MemVolts:       1.20,

		TestPad:        "C12",
		PadDomain:      MemoryDomain,
		TargetMemories: []string{"SRAM (main memory)"},

		HasJTAG: true, // SWD, architecturally equivalent here
		BootROMClobbers: []ByteRange{
			{Start: 0, End: 2048}, // §6.2: "they usually clobber 2KB SRAM at the boot phase"
		},
		DisconnectSurgeAmps: 0.3,
	}
}

// Catalog returns all evaluated platforms in Table 2 order.
func Catalog() []DeviceSpec {
	return []DeviceSpec{BCM2837(), BCM2711(), IMX53()}
}
