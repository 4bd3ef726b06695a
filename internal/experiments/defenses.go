package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/soc"
)

// DefenseOutcome is one row of the §8 countermeasure survey: what happens
// when the full Volt Boot cache attack runs against a defended device.
type DefenseOutcome struct {
	Name string
	// AttackSucceeded is true when the attacker recovers the victim's
	// cache contents with high accuracy.
	AttackSucceeded bool
	// RetentionAccuracy is the measured extraction accuracy against the
	// captured cache state (1.0 = perfect theft).
	RetentionAccuracy float64
	// FailureMode describes how the defense stopped the attack ("" when
	// it did not).
	FailureMode string
}

// CountermeasuresResult is the full survey.
type CountermeasuresResult struct {
	Outcomes []DefenseOutcome
}

// runDefendedAttack stages the standard pattern victim, then attacks a
// device built with the given options. secureVictim runs the victim in
// the TrustZone secure world (the CaSE deployment model).
func runDefendedAttack(seed uint64, opts soc.Options, secureVictim bool, orderlyShutdown bool) (*DefenseOutcome, error) {
	spec := soc.BCM2711()
	b, _, err := newBoard(spec, opts, seed)
	if err != nil {
		return nil, err
	}
	victim, err := core.VictimPatternFillImage(0x100000, 2048, 0x5A)
	if err != nil {
		return nil, err
	}
	// The victim is the device owner's legitimate software: the OEM signs
	// it, so it boots under every countermeasure.
	if secureVictim {
		victim.TrustedWorld = true
	}
	victim.Signature = b.SoC.SignImage(victim)
	if err := core.RunVictim(b, victim, 50_000_000); err != nil {
		return nil, err
	}
	// Ground truth is the cache state while the victim's secrets are
	// resident — what the attacker is trying to steal.
	truth := make([][]byte, spec.L1D.Ways)
	for w := range truth {
		truth[w] = b.SoC.Cores[0].L1D.DumpWay(w)
	}
	if orderlyShutdown {
		// The defense-side scenario: the device gets to run its shutdown
		// purge before losing power. (Volt Boot's abrupt disconnect is
		// exactly the path that skips this.)
		b.SoC.OrderlyShutdown()
	}
	ext, err := core.VoltBootCaches(b, core.DefaultAttackConfig())
	if err != nil {
		if errors.Is(err, soc.ErrUnsignedImage) {
			return &DefenseOutcome{FailureMode: "extraction payload refused by boot chain"}, nil
		}
		return nil, err
	}
	var accs []float64
	for w, way := range ext.Dumps[0].L1D {
		accs = append(accs, analysis.RetentionAccuracy(truth[w], way))
	}
	acc := analysis.Mean(accs)
	out := &DefenseOutcome{RetentionAccuracy: acc, AttackSucceeded: acc > 0.95}
	return out, nil
}

// defenseScenario is one row of the survey grid: a device configuration,
// the victim's deployment model, and the failure mode we annotate when
// the attack is stopped without reporting its own.
type defenseScenario struct {
	name            string
	opts            soc.Options
	secureVictim    bool
	orderly         bool
	expectedFailure string
}

// CountermeasuresCtx runs the §8 survey: the undefended baseline plus each
// proposed defense, reporting whether Volt Boot still works. Every
// scenario attacks its own freshly built same-seed board, so the eight
// rows are independent trials fanned across CPUs by runner.Map; the
// survey order is fixed by the scenario table, not by scheduling. The
// survey stops dispatching scenarios once ctx is cancelled and returns
// ctx.Err().
func CountermeasuresCtx(ctx context.Context, seed uint64) (*CountermeasuresResult, error) {
	scenarios := []defenseScenario{
		{name: "none (baseline)"},
		{name: "purge on orderly shutdown"},
		// The purge defense only works when the shutdown path runs — show
		// both sides.
		{name: "purge, but abrupt disconnect skips it"},
		// Orderly shutdown variant: attacker lets the device power down
		// normally first (not the Volt Boot threat model, for contrast).
		{name: "purge ran (graceful power-down, for contrast)", orderly: true,
			expectedFailure: "caches zeroized before power loss"},
		{name: "MBIST reset at startup", opts: soc.Options{MBISTReset: true},
			expectedFailure: "hardware zeroized SRAM during boot"},
		{name: "power-toggle reset at startup", opts: soc.Options{PowerToggleReset: true},
			expectedFailure: "internal SRAM power gate toggled at reset"},
		{name: "TrustZone NS-bit enforcement", opts: soc.Options{TrustZone: true}, secureVictim: true,
			expectedFailure: "RAMINDEX denied on secure lines from non-secure payload"},
		{name: "mandated authenticated boot", opts: soc.Options{AuthenticatedBoot: true},
			expectedFailure: "extraction payload refused by boot chain"},
	}
	outcomes, err := runner.MapCtx(ctx, len(scenarios), runtime.GOMAXPROCS(0), func(i int) (DefenseOutcome, error) {
		sc := scenarios[i]
		o, err := runDefendedAttack(seed, sc.opts, sc.secureVictim, sc.orderly)
		if err != nil {
			return DefenseOutcome{}, fmt.Errorf("experiments: countermeasure %q: %w", sc.name, err)
		}
		o.Name = sc.name
		if !o.AttackSucceeded && o.FailureMode == "" {
			o.FailureMode = sc.expectedFailure
		}
		return *o, nil
	})
	if err != nil {
		return nil, err
	}
	return &CountermeasuresResult{Outcomes: outcomes}, nil
}

// String renders the survey.
func (r *CountermeasuresResult) String() string {
	var b strings.Builder
	b.WriteString("§8: countermeasure survey (Volt Boot cache attack vs BCM2711)\n")
	fmt.Fprintf(&b, "  %-46s %-10s %-10s %s\n", "Defense", "Attack", "Accuracy", "Failure mode")
	for _, o := range r.Outcomes {
		verdict := "DEFEATED"
		if o.AttackSucceeded {
			verdict = "SUCCEEDS"
		}
		fmt.Fprintf(&b, "  %-46s %-10s %-10s %s\n", o.Name, verdict, pct(o.RetentionAccuracy), o.FailureMode)
	}
	return b.String()
}
