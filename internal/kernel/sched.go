package kernel

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/soc"
)

// This file adds preemptive multitasking to the kernel model: several
// processes share one core through round-robin context switches that
// save and restore the architectural registers, exactly the way a real
// kernel's switch_to does.
//
// The security consequence it lets the experiments demonstrate: the
// register file's SRAM holds the *currently scheduled* process's state
// at the instant of an abrupt power cut. A TRESOR-style design is safe
// from Volt Boot's register attack only while some *other* process is
// on-core — which is precisely the kind of probabilistic defense §8
// warns against relying on.

// Process is one schedulable context.
type Process struct {
	// Name identifies the process in results.
	Name string
	// Entry is the program counter the process starts at.
	Entry uint64
	// saved is the context storage ("kernel stack"): X and V registers
	// plus PC and flags. It lives in kernel DRAM conceptually; its
	// contents are plain Go state because the experiments only ever
	// attack the *register file*, not the kernel's save area.
	savedX     [31]uint64
	savedV     [32][2]uint64
	savedPC    uint64
	savedFlags isa.Flags
	started    bool
	// Done is set when the process executes HLT.
	Done bool
	// Instret counts instructions the process has retired.
	Instret uint64
}

// Scheduler multiplexes processes onto one core with a fixed quantum.
type Scheduler struct {
	soc     *soc.SoC
	core    int
	quantum uint64
	procs   []*Process
	// Current is the index of the process now on-core (-1 before Run).
	Current int
	// Switches counts completed context switches.
	Switches uint64
}

// NewScheduler builds a round-robin scheduler for the given core.
func NewScheduler(s *soc.SoC, core int, quantum uint64) *Scheduler {
	return &Scheduler{soc: s, core: core, quantum: quantum, Current: -1}
}

// Add registers a process.
func (sc *Scheduler) Add(p *Process) { sc.procs = append(sc.procs, p) }

// Processes returns the registered processes.
func (sc *Scheduler) Processes() []*Process { return sc.procs }

// saveContext copies the architectural state out of the register file
// into the process's save area.
func (sc *Scheduler) saveContext(p *Process) {
	cpu := sc.soc.Cores[sc.core].CPU
	for i := 0; i < 31; i++ {
		p.savedX[i] = cpu.X(i)
	}
	for i := 0; i < 32; i++ {
		p.savedV[i] = cpu.V(i)
	}
	p.savedPC = cpu.PC
	p.savedFlags = cpu.Flags
}

// restoreContext loads a process's saved state into the register file —
// overwriting whatever the previous process left there, which is why a
// context switch *changes which secrets Volt Boot can steal*.
func (sc *Scheduler) restoreContext(p *Process) {
	cpu := sc.soc.Cores[sc.core].CPU
	for i := 0; i < 31; i++ {
		cpu.SetX(i, p.savedX[i])
	}
	for i := 0; i < 32; i++ {
		cpu.SetV(i, p.savedV[i])
	}
	cpu.PC = p.savedPC
	cpu.Flags = p.savedFlags
	cpu.Halted = false
}

// Run schedules the processes round-robin until all are Done or the
// instruction budget is exhausted. It returns the index of the process
// that was on-core when the budget ran out (the one a mid-run power cut
// would capture), or -1 if everything completed.
func (sc *Scheduler) Run(maxInstr uint64) (int, error) {
	if len(sc.procs) == 0 {
		return -1, fmt.Errorf("kernel: no processes")
	}
	cpu := sc.soc.Cores[sc.core].CPU
	var total uint64
	idx := -1
	for total < maxInstr {
		// Pick the next runnable process.
		next := -1
		for step := 1; step <= len(sc.procs); step++ {
			cand := (idx + step) % len(sc.procs)
			if !sc.procs[cand].Done {
				next = cand
				break
			}
		}
		if next < 0 {
			sc.Current = -1
			return -1, nil // all done
		}
		// Context switch.
		if idx >= 0 && idx != next {
			sc.saveContext(sc.procs[idx])
		}
		p := sc.procs[next]
		if !p.started {
			p.started = true
			p.savedPC = p.Entry
		}
		if idx != next {
			sc.restoreContext(p)
			sc.Switches++
		}
		idx = next
		sc.Current = next

		ran, err := sc.soc.RunCoreQuantum(sc.core, sc.quantum)
		total += ran
		p.Instret += ran
		if err != nil {
			return next, fmt.Errorf("kernel: process %s: %w", p.Name, err)
		}
		if cpu.Halted {
			p.Done = true
			sc.saveContext(p)
		}
	}
	return sc.Current, nil
}
