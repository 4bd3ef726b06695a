// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate, plus the ablations DESIGN.md
// adds. Each experiment is a pure function of a seed: same seed, same
// rows. Each result type renders itself as text in the shape of the
// paper's table or figure.
package experiments

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// boardHook, when non-nil, is called on every board the experiments
// build, right after power-up. It exists for one test: proving that an
// armed trace capturer on every board leaves every experiment's golden
// output byte-identical (capture is architecturally invisible).
var boardHook func(*board.Board)

// newBoard builds a powered board for an experiment run.
func newBoard(spec soc.DeviceSpec, opts soc.Options, seed uint64) (*board.Board, *sim.Env, error) {
	env := sim.NewEnv()
	b, err := board.New(env, spec, opts, seed)
	if err != nil {
		return nil, nil, err
	}
	b.ConnectMain()
	if boardHook != nil {
		boardHook(b)
	}
	return b, env, nil
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// newHeldSupply attaches an ideal bench supply to the named pad and
// returns it; callers detach it when the hold should end.
func newHeldSupply(b *board.Board, padName string) (*power.BenchSupply, error) {
	psu := power.NewBenchSupply("hold-"+padName, 0, 10)
	if err := b.AttachProbe(padName, psu); err != nil {
		return nil, fmt.Errorf("experiments: attaching supply to %s: %w", padName, err)
	}
	return psu, nil
}

// capitalize upper-cases the first byte of an ASCII word.
func capitalize(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

// meanInts averages integer samples.
func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
