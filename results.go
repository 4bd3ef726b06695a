package voltboot

import (
	"context"

	"repro/internal/aes"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/soc"
)

// This file re-exports the experiment harness (one function per table and
// figure of the paper) and the analysis primitives users need to score
// their own extractions.

// Experiment result aliases.
type (
	// Table1Result is the §3 cold boot error table.
	Table1Result = experiments.Table1Result
	// Figure3Result is the cold-booted d-cache way image.
	Figure3Result = experiments.Figure3Result
	// Table2Result lists the evaluated platforms.
	Table2Result = experiments.Table2Result
	// Table3Result lists the probe pads.
	Table3Result = experiments.Table3Result
	// Figure4Result is the power topology rendering.
	Figure4Result = experiments.Figure4Result
	// Figure5Result is the attack step trace.
	Figure5Result = experiments.Figure5Result
	// Figure6Result is the pad-map substitution for the board photos.
	Figure6Result = experiments.Figure6Result
	// Figure7Result is the bare-metal i-cache attack snapshot.
	Figure7Result = experiments.Figure7Result
	// Figure8Result is the OS-scenario cache snapshot.
	Figure8Result = experiments.Figure8Result
	// Table4Result is the d-cache extraction-vs-array-size table.
	Table4Result = experiments.Table4Result
	// Section72Result is the vector-register retention result.
	Section72Result = experiments.Section72Result
	// AccessibilityResult is the §6.2 boot-clobbering measurement.
	AccessibilityResult = experiments.AccessibilityResult
	// Figure9Result is the iRAM bitmap extraction.
	Figure9Result = experiments.Figure9Result
	// Figure10Result is the iRAM error-locality profile.
	Figure10Result = experiments.Figure10Result
	// CountermeasuresResult is the §8 defense survey.
	CountermeasuresResult = experiments.CountermeasuresResult
	// ProbeSweepResult is Ablation A (probe current vs accuracy).
	ProbeSweepResult = experiments.ProbeSweepResult
	// RetentionSweepResult is Ablation B (temperature/time grid).
	RetentionSweepResult = experiments.RetentionSweepResult
	// DRAMColdBootResult is Ablation C (classic DRAM cold boot).
	DRAMColdBootResult = experiments.DRAMColdBootResult
	// ImprintResult is Ablation D (aging/imprint baseline, §9.2).
	ImprintResult = experiments.ImprintResult
	// HistoryTheftResult is Ablation E (TLB access-pattern theft).
	HistoryTheftResult = experiments.HistoryTheftResult
	// CaSELockResult is the §7.1.2 cache-locking comparison.
	CaSELockResult = experiments.CaSELockResult
	// WarmRebootResult is Ablation F (BootJacker baseline vs TCG reset).
	WarmRebootResult = experiments.WarmRebootResult
	// ContextSwitchResult is Ablation G (scheduler-dependent exposure).
	ContextSwitchResult = experiments.ContextSwitchResult
	// PUFCloneResult is Ablation H (PUF cloning via the extraction path).
	PUFCloneResult = experiments.PUFCloneResult
	// MCUAttackResult is the microcontroller extension of the attack.
	MCUAttackResult = experiments.MCUAttackResult
	// TLBExtraction is the result of a TLB-history attack.
	TLBExtraction = core.TLBExtraction
)

// Table1 reproduces Table 1 (cold boot on SRAM is ineffective).
func Table1(seed uint64) (*Table1Result, error) {
	return experiments.Table1Ctx(context.Background(), seed)
}

// Figure3 reproduces Figure 3 (cold-booted d-cache is power-on noise).
func Figure3(seed uint64) (*Figure3Result, error) { return experiments.Figure3(seed) }

// Table2 reproduces Table 2 (evaluated platforms).
func Table2() *Table2Result { return experiments.Table2() }

// Table3 reproduces Table 3 (probe pads and domains).
func Table3() *Table3Result { return experiments.Table3() }

// Figure4 reproduces Figure 4 (PMIC/power topology).
func Figure4(seed uint64) (*Figure4Result, error) { return experiments.Figure4(seed) }

// Figure5 reproduces Figure 5 (attack execution steps).
func Figure5(seed uint64) (*Figure5Result, error) { return experiments.Figure5(seed) }

// Figure6 substitutes Figure 6 (probe attachment points).
func Figure6() *Figure6Result { return experiments.Figure6() }

// Figure7 reproduces Figure 7 (bare-metal i-cache retention, both SoCs).
func Figure7(seed uint64) ([]*Figure7Result, error) { return experiments.Figure7(seed) }

// Figure8 reproduces Figure 8 (OS-scenario cache snapshots).
func Figure8(seed uint64) (*Figure8Result, error) { return experiments.Figure8(seed) }

// Table4 reproduces Table 4 (d-cache extraction vs array size).
func Table4(seed uint64) (*Table4Result, error) { return experiments.Table4(seed) }

// Section72 reproduces the §7.2 register retention experiment.
func Section72(seed uint64, spec DeviceSpec) (*Section72Result, error) {
	return experiments.Section72(seed, spec)
}

// Accessibility reproduces the §6.2 accessible-memory measurement.
func Accessibility(seed uint64) (*AccessibilityResult, error) {
	return experiments.Accessibility(seed)
}

// Figure9 reproduces Figure 9 (i.MX53 iRAM bitmap extraction).
func Figure9(seed uint64) (*Figure9Result, error) { return experiments.Figure9(seed) }

// Figure10 reproduces Figure 10 (iRAM error locality).
func Figure10(seed uint64) (*Figure10Result, error) { return experiments.Figure10(seed) }

// Countermeasures reproduces the §8 defense survey.
func Countermeasures(seed uint64) (*CountermeasuresResult, error) {
	return experiments.CountermeasuresCtx(context.Background(), seed)
}

// ProbeCurrentSweep runs Ablation A.
func ProbeCurrentSweep(seed uint64) (*ProbeSweepResult, error) {
	return experiments.ProbeCurrentSweepCtx(context.Background(), seed)
}

// RetentionSweep runs Ablation B.
func RetentionSweep(seed uint64) *RetentionSweepResult {
	return experiments.RetentionSweep(seed)
}

// DRAMColdBoot runs Ablation C.
func DRAMColdBoot(seed uint64) (*DRAMColdBootResult, error) {
	return experiments.DRAMColdBoot(seed)
}

// ImprintBaseline runs Ablation D (aging attacks vs Volt Boot).
func ImprintBaseline(seed uint64) *ImprintResult {
	return experiments.ImprintBaseline(seed)
}

// HistoryTheft runs Ablation E (microarchitectural history theft).
func HistoryTheft(seed uint64) (*HistoryTheftResult, error) {
	return experiments.HistoryTheft(seed)
}

// CaSELock runs the §7.1.2 cache-locking comparison.
func CaSELock(seed uint64) (*CaSELockResult, error) {
	return experiments.CaSELock(seed)
}

// WarmReboot runs Ablation F (warm-reboot baseline and TCG mitigation).
func WarmReboot(seed uint64) (*WarmRebootResult, error) {
	return experiments.WarmReboot(seed)
}

// ContextSwitchLeak runs Ablation G (register theft under multitasking).
func ContextSwitchLeak(seed uint64) (*ContextSwitchResult, error) {
	return experiments.ContextSwitchLeak(seed)
}

// PUFClone runs Ablation H (cloning an SRAM PUF via cache extraction).
func PUFClone(seed uint64) (*PUFCloneResult, error) {
	return experiments.PUFCloneCtx(context.Background(), seed)
}

// MCUAttack runs the microcontroller extension (SRAM-as-main-memory).
func MCUAttack(seed uint64) (*MCUAttackResult, error) {
	return experiments.MCUAttack(seed)
}

// GenericMCU returns the Cortex-M-class device spec used by MCUAttack.
func GenericMCU() DeviceSpec { return soc.GenericMCU() }

// Analysis primitives.

// FractionalHD returns the Hamming distance between two equal-length
// images normalized to [0, 1].
func FractionalHD(a, b []byte) float64 { return analysis.FractionalHD(a, b) }

// RetentionAccuracy returns 1 − FractionalHD.
func RetentionAccuracy(stored, extracted []byte) float64 {
	return analysis.RetentionAccuracy(stored, extracted)
}

// FindPattern returns the offsets of needle inside haystack.
func FindPattern(haystack, needle []byte) []int { return analysis.FindPattern(haystack, needle) }

// AES key-schedule tooling for key-theft workflows.

// ExpandAES128Key expands a 16-byte key into its 176-byte schedule.
func ExpandAES128Key(key []byte) ([]byte, error) { return aes.ExpandKey128(key) }

// AESRoundKey slices round key r (0–10) from a schedule.
func AESRoundKey(schedule []byte, r int) []byte { return aes.RoundKey(schedule, r) }

// InvertAES128Schedule recovers the master key from any single round key
// — why extracting one round key from a vector register breaks
// TRESOR-style on-chip crypto.
func InvertAES128Schedule(roundKey []byte, round int) ([]byte, error) {
	return aes.InvertSchedule128(roundKey, round)
}

// AESCTRXor encrypts/decrypts in place with AES-128-CTR (an involution).
func AESCTRXor(schedule []byte, nonce uint64, data []byte) error {
	return aes.CTRXor(schedule, nonce, data)
}

// FoundKey is one key-schedule hit from a memory-image scan.
type FoundKey = aes.FoundKey

// FindKeySchedules scans a raw memory image (a cache dump, an iRAM dump)
// for AES-128 key schedules — the classic aeskeyfind post-processing of
// §6.1 step 4. maxErrors tolerates corrupted schedule bytes (0 for Volt
// Boot dumps, which are exact).
func FindKeySchedules(image []byte, maxErrors int) []FoundKey {
	return aes.FindKeySchedules(image, maxErrors)
}
