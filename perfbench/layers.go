package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// perLayer is every per-layer metric, in BENCHMARK.json order. Each
// traced run reports all of them; a layer the workload never reaches
// reads 0. Counts and times are per op (per request on fleet-mix).
var perLayer = []struct{ name, unit string }{
	{"board.new_ms", "ms"}, {"board.new_count", "count"},
	{"board.power_on_ms", "ms"},
	{"soc.boot_ms", "ms"},
	{"soc.exec_ms", "ms"}, {"soc.exec_instr", "count"}, {"soc.exec_ns_per_instr", "ns"},
	{"soc.exec_armed_ms", "ms"}, {"soc.exec_armed_instr", "count"}, {"soc.exec_armed_ns_per_instr", "ns"},
	{"physics.power_cycle_ms", "ms"},
	{"core.attack_ms", "ms"},
	{"board.snapshot_ms", "ms"}, {"board.restore_ms", "ms"}, {"board.restore_count", "count"},
	{"fault.arm_ms", "ms"},
	{"sca.attack_ms", "ms"},
	{"analysis_ms", "ms"},
	{"runner.busy_ms", "ms"}, {"runner.idle_ms", "ms"},
	{"other_ms", "ms"}, {"other_pct", "%"},
	{"trace.fork_ms", "ms"}, {"trace.op_ms", "ms"}, {"trace.overhead_pct", "%"},
	{"campaign.queue_wait_ms", "ms"}, {"campaign.run_ms", "ms"},
	{"campaign.tier_mem", "count"}, {"campaign.tier_disk", "count"},
	{"campaign.tier_miss", "count"}, {"campaign.tier_forward", "count"},
	{"campaign.mem_hit_ratio", "ratio"},
	{"registry.run_ms", "ms"}, {"registry.run_count", "count"},
	{"fabric.forward_ms", "ms"}, {"fabric.forward_count", "count"},
	{"fabric.steals", "count"}, {"fabric.handbacks", "count"},
	{"store.open_ms", "ms"},
	{"store.hot_hits", "count"}, {"store.disk_hits", "count"},
	{"store.misses", "count"}, {"store.puts", "count"},
	{"go.gc_pause_ms", "ms"},
}

// completeLayers fills every per-layer metric the workload did not
// measure with 0 and rejects names outside the list.
func completeLayers(m map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		v, ok := m[l.name]
		if ok && v.Unit != l.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", l.name, v.Unit, l.unit)
		}
		out[l.name] = metric{v.Value, l.unit}
		delete(m, l.name)
	}
	for name := range m {
		return nil, fmt.Errorf("metric %s is not a per-layer metric", name)
	}
	return out, nil
}

// simLayers are the span names of the simulator layers, in report
// order; each becomes <name>_ms. The remaining span names are the op
// root, the runner fan-out and its items (their self time is the
// benchmark's glue code, counted as other) and the power-cycle fork
// (tracing overhead).
var simLayers = []string{
	"board.new", "board.power_on", "soc.boot", "soc.exec", "soc.exec_armed",
	"physics.power_cycle", "core.attack", "board.snapshot", "board.restore",
	"fault.arm", "sca.attack", "analysis",
}

// layerTotals accumulates self time by layer over a set of ops.
type layerTotals struct {
	selfNs          map[string]int64
	count           map[string]int
	instr           map[string]uint64
	busyNs, idleNs  int64
	otherNs, forkNs int64
	opNs            int64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{selfNs: map[string]int64{}, count: map[string]int{}, instr: map[string]uint64{}}
}

// spanSummary is the traced run's attribution, overall and per class.
type spanSummary struct {
	total   *layerTotals
	byClass map[int]*layerTotals
}

// summarize attributes every span's self time to its layer. Times are
// scaled by their op's calibration factor (see calib.go).
func summarize(spans []span, opClass map[int]int, opScale map[int]float64) spanSummary {
	selfNs := selfTimes(spans)
	kidsDur := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kidsDur[sp.Parent] += sp.EndNs - sp.StartNs
		}
	}
	s := spanSummary{total: newLayerTotals(), byClass: map[int]*layerTotals{}}
	for i, sp := range spans {
		c, ok := opClass[sp.Op]
		if !ok {
			continue
		}
		if s.byClass[c] == nil {
			s.byClass[c] = newLayerTotals()
		}
		f := opScale[sp.Op]
		dur := int64(f * float64(sp.EndNs-sp.StartNs))
		self := int64(f * float64(selfNs[i]))
		kids := int64(f * float64(kidsDur[i]))
		for _, t := range []*layerTotals{s.total, s.byClass[c]} {
			switch {
			case sp.Name == "op":
				t.otherNs += self
				t.opNs += dur
			case sp.Name == "runner.fanout":
				t.otherNs += self
				t.idleNs += int64(sp.Workers)*dur - kids
			case sp.Name == "runner.item":
				t.otherNs += self
				t.busyNs += dur
			case sp.Name == "trace.fork":
				t.forkNs += self
			case slices.Contains(simLayers, sp.Name):
				t.selfNs[sp.Name] += self
				t.count[sp.Name]++
				t.instr[sp.Name] += sp.Instr
			default:
				panic("perfbench: span " + sp.Name + " has no layer")
			}
		}
	}
	return s
}

// layerMetrics turns totals into the per-op per-layer metrics.
func layerMetrics(t *layerTotals, nops int) map[string]metric {
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(nops) }
	m := map[string]metric{}
	for _, name := range simLayers {
		m[name+"_ms"] = metric{per(t.selfNs[name]), "ms"}
	}
	m["board.new_count"] = metric{float64(t.count["board.new"]) / float64(nops), "count"}
	m["board.restore_count"] = metric{float64(t.count["board.restore"]) / float64(nops), "count"}
	for _, x := range []string{"soc.exec", "soc.exec_armed"} {
		m[x+"_instr"] = metric{float64(t.instr[x]) / float64(nops), "count"}
		nsPer := 0.0
		if t.instr[x] > 0 {
			nsPer = float64(t.selfNs[x]) / float64(t.instr[x])
		}
		m[x+"_ns_per_instr"] = metric{nsPer, "ns"}
	}
	m["runner.busy_ms"] = metric{per(t.busyNs), "ms"}
	m["runner.idle_ms"] = metric{per(t.idleNs), "ms"}
	m["other_ms"] = metric{per(t.otherNs), "ms"}
	m["other_pct"] = metric{100 * float64(t.otherNs) / float64(t.opNs), "%"}
	m["trace.fork_ms"] = metric{per(t.forkNs), "ms"}
	m["trace.op_ms"] = metric{per(t.opNs), "ms"}
	return m
}

// writeShareReport prints each class's layer self time as a share of
// its op time (worker time, fork excluded) and the tracing overhead
// against the untraced catalog runs of the same seeds. power_cycle* is
// measured on the snapshot fork; attack* is core.attack minus that
// estimate, so the two columns together are the real attack's time.
func writeShareReport(wl *simWorkload, s spanSummary, ops [3]int,
	traced, untraced [3]time.Duration) string {
	var w strings.Builder
	fmt.Fprintf(&w, "\nlayer-share report: %s (shares of worker time per op; power_cycle* timed on a snapshot fork, attack* = core.attack - power_cycle*)\n", wl.name)
	tw := tabwriter.NewWriter(&w, 0, 0, 1, ' ', tabwriter.AlignRight)
	hdr := []string{"class", "ops", "traced_ms", "untraced_ms", "overhead%"}
	for _, l := range simLayers {
		name := l
		switch l {
		case "physics.power_cycle":
			name = "power_cycle*"
		case "core.attack":
			name = "attack*"
		}
		hdr = append(hdr, name)
	}
	hdr = append(hdr, "runner.idle", "other", "physics")
	writeRow(tw, hdr)
	classes := make([]int, 0, len(s.byClass))
	for c := range s.byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		t := s.byClass[c]
		if ops[c] == 0 {
			continue
		}
		total := t.otherNs + t.idleNs
		for _, l := range simLayers {
			if l != "physics.power_cycle" {
				total += t.selfNs[l]
			}
		}
		pct := func(ns int64) string { return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(total)) }
		tms := float64(traced[c].Milliseconds()) / float64(ops[c])
		ums := float64(untraced[c].Milliseconds()) / float64(ops[c])
		row := []string{wl.classes[c].exp, fmt.Sprint(ops[c]), fmt.Sprintf("%.1f", tms), fmt.Sprintf("%.1f", ums),
			fmt.Sprintf("%.1f", 100*(tms-ums)/ums)}
		cycle := t.selfNs["physics.power_cycle"]
		for _, l := range simLayers {
			switch l {
			case "core.attack":
				row = append(row, pct(t.selfNs[l]-cycle))
			default:
				row = append(row, pct(t.selfNs[l]))
			}
		}
		physics := t.selfNs["board.new"] + t.selfNs["board.power_on"] + cycle
		row = append(row, pct(t.idleNs), pct(t.otherNs), pct(physics))
		writeRow(tw, row)
	}
	_ = tw.Flush() // writes into a strings.Builder, which cannot fail
	w.WriteString("physics = board.new + board.power_on + power_cycle*: the SRAM/DRAM state construction, power-up and power-cycle kernels.\n")
	return w.String()
}

// writeRow writes one table row; the tabwriter's sink is a
// strings.Builder, so the write cannot fail.
func writeRow(tw *tabwriter.Writer, cells []string) {
	_, _ = io.WriteString(tw, strings.Join(cells, "\t")+"\t\n")
}
