package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Default returns the paper's evaluation catalog: every table and figure
// plus the ablations, in the order cmd/experiments has always printed
// them. The catalog is rebuilt per call so callers can't alias each
// other's Experiment values.
func Default() *Registry {
	// textOnly adapts the common shape: seed in, printable result out.
	textOnly := func(run func(ctx context.Context, seed uint64) (fmt.Stringer, error)) func(context.Context, Request) (*Result, error) {
		return func(ctx context.Context, req Request) (*Result, error) {
			r, err := run(ctx, req.Seed)
			if err != nil {
				return nil, err
			}
			return &Result{Text: r.String()}, nil
		}
	}
	return New(
		&Experiment{
			Name: "table1", Doc: "§3 cold boot on SRAM across temperatures",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Table1Ctx(ctx, seed)
			}),
		},
		&Experiment{
			Name: "figure3", Doc: "cold-booted d-cache way image (power-on noise)",
			ArtifactKinds: []string{"text", "pbm"},
			Run: func(ctx context.Context, req Request) (*Result, error) {
				r, err := experiments.Figure3(req.Seed)
				if err != nil {
					return nil, err
				}
				return &Result{
					Text:      r.String(),
					Artifacts: []Artifact{{Name: "figure3_way0.pbm", Kind: "pbm", Data: r.PBM}},
				}, nil
			},
		},
		&Experiment{
			Name: "table2", Doc: "evaluated platforms",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(context.Context, uint64) (fmt.Stringer, error) {
				return experiments.Table2(), nil
			}),
		},
		&Experiment{
			Name: "table3", Doc: "probe pads and power domains",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(context.Context, uint64) (fmt.Stringer, error) {
				return experiments.Table3(), nil
			}),
		},
		&Experiment{
			Name: "figure4", Doc: "PMIC/power topology rendering",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Figure4(seed)
			}),
		},
		&Experiment{
			Name: "figure5", Doc: "attack execution step trace",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Figure5(seed)
			}),
		},
		&Experiment{
			Name: "figure6", Doc: "probe attachment pad map",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(context.Context, uint64) (fmt.Stringer, error) {
				return experiments.Figure6(), nil
			}),
		},
		&Experiment{
			Name: "figure7", Doc: "bare-metal i-cache retention, both SoCs",
			ArtifactKinds: []string{"text"},
			Run: func(_ context.Context, req Request) (*Result, error) {
				rs, err := experiments.Figure7(req.Seed)
				if err != nil {
					return nil, err
				}
				var b strings.Builder
				for _, r := range rs {
					b.WriteString(r.String())
				}
				return &Result{Text: b.String()}, nil
			},
		},
		&Experiment{
			Name: "figure8", Doc: "OS-scenario cache snapshot",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Figure8(seed)
			}),
		},
		&Experiment{
			Name: "table4", Doc: "d-cache extraction vs array size under a live OS", Slow: true,
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Table4(seed)
			}),
		},
		&Experiment{
			Name: "section7.2", Doc: "vector-register retention per board",
			ArtifactKinds: []string{"text"},
			Params: []ParamSpec{{
				Name: "boards", Kind: StringListKind, Default: "pi4,pi3",
				Enum: []string{"pi4", "pi3"},
				Doc:  "which boards to run, in order",
			}},
			Run: func(_ context.Context, req Request) (*Result, error) {
				var b strings.Builder
				for _, name := range SplitList(req.Params["boards"]) {
					spec, err := boardSpec(name)
					if err != nil {
						return nil, err
					}
					r, err := experiments.Section72(req.Seed, spec)
					if err != nil {
						return nil, err
					}
					b.WriteString(r.String())
				}
				return &Result{Text: b.String()}, nil
			},
		},
		&Experiment{
			Name: "section6.2", Doc: "boot-clobbering / accessible-memory measurement",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Accessibility(seed)
			}),
		},
		&Experiment{
			Name: "figure9", Doc: "i.MX53 iRAM bitmap extraction",
			ArtifactKinds: []string{"text", "pbm"},
			Run: func(_ context.Context, req Request) (*Result, error) {
				r, err := experiments.Figure9(req.Seed)
				if err != nil {
					return nil, err
				}
				res := &Result{Text: r.String()}
				for q, pbm := range r.PBMs {
					res.Artifacts = append(res.Artifacts, Artifact{
						Name: fmt.Sprintf("figure9_quadrant_%c.pbm", 'a'+q),
						Kind: "pbm",
						Data: pbm,
					})
				}
				return res, nil
			},
		},
		&Experiment{
			Name: "figure10", Doc: "iRAM error-locality profile",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.Figure10(seed)
			}),
		},
		&Experiment{
			Name: "countermeasures", Doc: "§8 defense survey run as live attacks", Slow: true,
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.CountermeasuresCtx(ctx, seed)
			}),
		},
		&Experiment{
			Name: "ablationA-probe-sweep", Doc: "probe current limit vs extraction accuracy", Slow: true,
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.ProbeCurrentSweepCtx(ctx, seed)
			}),
		},
		&Experiment{
			Name: "ablationB-retention-sweep", Doc: "SRAM retention vs temperature and off-time",
			ArtifactKinds: []string{"text"},
			Params: []ParamSpec{
				{
					Name: "temps", Kind: FloatListKind,
					Default: floatListDefault(experiments.RetentionSweepTemps()),
					Doc:     "temperature axis in °C",
				},
				{
					Name: "offtimes-ms", Kind: FloatListKind,
					Default: offTimesDefaultMs(),
					Doc:     "power-off-time axis in milliseconds",
				},
			},
			Run: func(ctx context.Context, req Request) (*Result, error) {
				temps, err := ParseFloatList(req.Params["temps"])
				if err != nil {
					return nil, err
				}
				offMs, err := ParseFloatList(req.Params["offtimes-ms"])
				if err != nil {
					return nil, err
				}
				for _, c := range temps {
					if c <= -273.15 {
						return nil, fmt.Errorf("registry: temperature %g °C is at or below absolute zero", c)
					}
				}
				offs := make([]sim.Time, len(offMs))
				for i, ms := range offMs {
					if ms < 0 || ms*float64(sim.Millisecond) >= math.MaxInt64 {
						return nil, fmt.Errorf("registry: off-time %g ms is negative or beyond the simulation clock", ms)
					}
					offs[i] = sim.Time(ms * float64(sim.Millisecond))
				}
				r, err := experiments.RetentionSweepGridCtx(ctx, req.Seed, temps, offs)
				if err != nil {
					return nil, err
				}
				return &Result{Text: r.String()}, nil
			},
		},
		&Experiment{
			Name: "ablationC-dram-coldboot", Doc: "classic DRAM cold boot, for contrast",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.DRAMColdBoot(seed)
			}),
		},
		&Experiment{
			Name: "ablationD-imprint", Doc: "aging/imprint baseline (§9.2)",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.ImprintBaseline(seed), nil
			}),
		},
		&Experiment{
			Name: "ablationE-history-theft", Doc: "TLB access-pattern theft",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.HistoryTheft(seed)
			}),
		},
		&Experiment{
			Name: "caselock", Doc: "§7.1.2 cache-locking comparison", Slow: true,
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.CaSELock(seed)
			}),
		},
		&Experiment{
			Name: "ablationF-warm-reboot", Doc: "BootJacker baseline vs TCG reset",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.WarmReboot(seed)
			}),
		},
		&Experiment{
			Name: "ablationG-context-switch", Doc: "scheduler-dependent register exposure",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.ContextSwitchLeak(seed)
			}),
		},
		&Experiment{
			Name: "ablationH-puf-clone", Doc: "PUF cloning via the extraction path", Slow: true,
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.PUFCloneCtx(ctx, seed)
			}),
		},
		&Experiment{
			Name: "mcu-extension", Doc: "microcontroller (SRAM-as-main-memory) extension",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.MCUAttack(seed)
			}),
		},
		&Experiment{
			Name: "glitchboot-check-skip", Doc: "voltage glitch skips the secure-boot digest compare",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.GlitchBootCheckSkip(seed)
			}),
		},
		&Experiment{
			Name: "glitchboot-verify-bypass", Doc: "voltage glitch inverts the secure-boot mismatch branch",
			ArtifactKinds: []string{"text"},
			Run: textOnly(func(_ context.Context, seed uint64) (fmt.Stringer, error) {
				return experiments.GlitchBootVerifyBypass(seed)
			}),
		},
		&Experiment{
			Name: "glitch-search", Doc: "Monte-Carlo glitch parameter search over (offset × width × depth)",
			ArtifactKinds: []string{"text", "json"},
			Params: []ParamSpec{
				{
					Name: "offsets", Kind: FloatListKind,
					Default: uintListDefault(experiments.GlitchSearchOffsets()),
					Doc:     "instruction offsets from the hash-done trigger",
				},
				{
					Name: "widths", Kind: FloatListKind,
					Default: uintListDefault(experiments.GlitchSearchWidths()),
					Doc:     "pulse widths in instructions",
				},
				{
					Name: "depths", Kind: FloatListKind,
					Default: floatListDefault(experiments.GlitchSearchDepths()),
					Doc:     "pulse depths in volts below nominal",
				},
				{
					Name: "trials", Kind: Uint64Kind, Default: "6",
					Doc: "Monte-Carlo trials per cell",
				},
			},
			Run: func(ctx context.Context, req Request) (*Result, error) {
				offsets, err := parseUintList(req.Params["offsets"])
				if err != nil {
					return nil, err
				}
				widths, err := parseUintList(req.Params["widths"])
				if err != nil {
					return nil, err
				}
				depths, err := ParseFloatList(req.Params["depths"])
				if err != nil {
					return nil, err
				}
				for _, d := range depths {
					if d < 0 {
						return nil, fmt.Errorf("registry: pulse depth %g V is negative", d)
					}
				}
				trials, err := strconv.ParseUint(req.Params["trials"], 0, 32)
				if err != nil {
					return nil, fmt.Errorf("registry: parsing trials: %w", err)
				}
				r, err := experiments.GlitchSearchCtx(ctx, req.Seed, offsets, widths, depths, int(trials))
				if err != nil {
					return nil, err
				}
				blob, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				return &Result{
					Text:      r.String(),
					Artifacts: []Artifact{{Name: "glitch_success_map.json", Kind: "json", Data: blob}},
				}, nil
			},
		},
		&Experiment{
			Name: "trace-capture", Doc: "per-cycle power-trace capture of the AES victim",
			ArtifactKinds: []string{"text", "trace"},
			Params:        scaParams("8", "2048", "0.25"),
			Run: func(ctx context.Context, req Request) (*Result, error) {
				n, window, sigma, key, err := scaArgs(req)
				if err != nil {
					return nil, err
				}
				r, err := experiments.TraceCaptureCtx(ctx, req.Seed, n, window, sigma, key)
				if err != nil {
					return nil, err
				}
				blob, err := r.Set.Artifact()
				if err != nil {
					return nil, err
				}
				return &Result{
					Text:      r.String(),
					Artifacts: []Artifact{{Name: "traces.vbtr", Kind: "trace", Data: blob}},
				}, nil
			},
		},
		&Experiment{
			Name: "sca-spa", Doc: "simple power analysis: AES round structure from the averaged trace",
			ArtifactKinds: []string{"text"},
			Params:        scaParams("4", "2048", "0.25"),
			Run: func(ctx context.Context, req Request) (*Result, error) {
				n, window, sigma, key, err := scaArgs(req)
				if err != nil {
					return nil, err
				}
				r, err := experiments.SCASPACtx(ctx, req.Seed, n, window, sigma, key)
				if err != nil {
					return nil, err
				}
				return &Result{Text: r.String()}, nil
			},
		},
		&Experiment{
			Name: "sca-cpa", Doc: "correlation power analysis: full AES-128 key recovery with key-rank report",
			ArtifactKinds: []string{"text", "json", "trace"},
			Params:        scaParams("200", "256", "1"),
			Run: func(ctx context.Context, req Request) (*Result, error) {
				n, window, sigma, key, err := scaArgs(req)
				if err != nil {
					return nil, err
				}
				r, err := experiments.SCACPACtx(ctx, req.Seed, n, window, sigma, key)
				if err != nil {
					return nil, err
				}
				rank, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				traces, err := r.TraceArtifact()
				if err != nil {
					return nil, err
				}
				return &Result{
					Text: r.String(),
					Artifacts: []Artifact{
						{Name: "cpa_keyrank.json", Kind: "json", Data: rank},
						{Name: "cpa_traces.vbtr", Kind: "trace", Data: traces},
					},
				}, nil
			},
		},
	)
}

// scaParams is the shared parameter schema of the side-channel
// experiments; the defaults differ per entry.
func scaParams(traces, window, sigma string) []ParamSpec {
	return []ParamSpec{
		{
			Name: "traces", Kind: Uint64Kind, Default: traces,
			Doc: "number of captured traces (one per random plaintext)",
		},
		{
			Name: "samples-window", Kind: Uint64Kind, Default: window,
			Doc: "capture arena size in samples (clips the trace)",
		},
		{
			Name: "noise-sigma", Kind: FloatListKind, Default: sigma,
			Doc: "gaussian measurement-noise sigma, single value",
		},
		{
			Name: "key", Kind: HexKind, Default: experiments.SCADefaultKey,
			Doc: "victim AES-128 key, 32 hex digits",
		},
	}
}

func scaArgs(req Request) (n, window int, sigma float64, key [16]byte, err error) {
	traces, err := strconv.ParseUint(req.Params["traces"], 0, 24)
	if err != nil {
		return 0, 0, 0, key, fmt.Errorf("registry: parsing traces: %w", err)
	}
	w, err := strconv.ParseUint(req.Params["samples-window"], 0, 24)
	if err != nil {
		return 0, 0, 0, key, fmt.Errorf("registry: parsing samples-window: %w", err)
	}
	sigmas, err := ParseFloatList(req.Params["noise-sigma"])
	if err != nil {
		return 0, 0, 0, key, err
	}
	if len(sigmas) != 1 {
		return 0, 0, 0, key, fmt.Errorf("registry: noise-sigma wants a single value, got %d", len(sigmas))
	}
	key, err = experiments.ParseSCAKey(req.Params["key"])
	if err != nil {
		return 0, 0, 0, key, err
	}
	return int(traces), int(w), sigmas[0], key, nil
}

func boardSpec(name string) (soc.DeviceSpec, error) {
	switch name {
	case "pi4":
		return soc.BCM2711(), nil
	case "pi3":
		return soc.BCM2837(), nil
	default:
		return soc.DeviceSpec{}, fmt.Errorf("registry: unknown board %q", name)
	}
}

func floatListDefault(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%g", f)
	}
	return strings.Join(parts, ",")
}

func uintListDefault(us []uint64) string {
	parts := make([]string, len(us))
	for i, u := range us {
		parts[i] = strconv.FormatUint(u, 10)
	}
	return strings.Join(parts, ",")
}

// parseUintList parses a FloatListKind value whose entries must be
// non-negative integers (the float-list kind keeps the CLI surface
// uniform; glitch axes are integral).
func parseUintList(v string) ([]uint64, error) {
	fs, err := ParseFloatList(v)
	if err != nil {
		return nil, err
	}
	us := make([]uint64, len(fs))
	for i, f := range fs {
		u := uint64(f)
		if float64(u) != f {
			return nil, fmt.Errorf("registry: %g is not a non-negative integer", f)
		}
		us[i] = u
	}
	return us, nil
}

func offTimesDefaultMs() string {
	offs := experiments.RetentionSweepOffTimes()
	parts := make([]string, len(offs))
	for i, off := range offs {
		parts[i] = fmt.Sprintf("%g", float64(off)/float64(sim.Millisecond))
	}
	return strings.Join(parts, ",")
}
