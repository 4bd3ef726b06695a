// Command perfbench is the repository benchmark. It drives the
// simulator and the campaign service through their public entry points
// on one of three workloads, checks every output, and prints one JSON
// line with the run's metrics:
//
//	sh perfbench/run.sh --workload voltboot-figures --seed 7 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that records spans around the benchmark's calls into each layer and
// reports the per-layer split (plus a layer-share report on stderr).
// README.md in this directory documents the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times each workload sets itself up; setup_s is
// the median, which keeps one slow first-touch from moving the gate.
const setupReps = 3

// outDir holds everything a run writes, relative to the checkout root.
var outDir = filepath.Join(".bench_build", "perfbench")

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	start    time.Time
	// build identifies the benchmark binary; the digest ledger compares
	// outputs only across runs of the same build.
	build string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	cfg := config{start: time.Now()}
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "voltboot-figures | fault-sca | fleet-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.IntVar(&seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.traced = traceFlag == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	build, err := buildID()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.build = build

	var res *result
	switch cfg.workload {
	case "voltboot-figures":
		res, err = runSim(figuresWorkload(), cfg)
	case "fault-sca":
		res, err = runSim(faultWorkload(), cfg)
	case "fleet-mix":
		res, err = runFleet(cfg)
	default:
		err = fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// buildID hashes the running binary.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gcPauseNs is the runtime's cumulative stop-the-world GC pause.
func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// endToEnd assembles the untraced metric set every workload reports,
// from calibrated times. class holds the per-class latency samples in
// the workload's class order; busy is the calibrated time the completed
// ops took (the load's active time on fleet-mix); tail is the pooled
// percentile reported as op_tail_ms.
func endToEnd(setups []time.Duration, all []time.Duration, class [3][]time.Duration,
	busy time.Duration, tail float64) (map[string]metric, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, errors.New("no op completed in the measurement window")
	}
	m := map[string]metric{
		"setup_s":     {median(setups).Seconds(), "s"},
		"ops_per_s":   {float64(len(all)) / busy.Seconds(), "1/s"},
		"op_p50_ms":   {millis(percentile(all, 0.5)), "ms"},
		"op_tail_ms":  {millis(percentile(all, tail)), "ms"},
		"peak_rss_mb": {rss, "MiB"},
	}
	for i, xs := range class {
		if len(xs) == 0 {
			return nil, fmt.Errorf("class %d completed no op", i+1)
		}
		m[fmt.Sprintf("class%d_p50_ms", i+1)] = metric{millis(percentile(xs, 0.5)), "ms"}
	}
	return m, nil
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []time.Duration) time.Duration { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}
