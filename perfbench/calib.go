package main

import (
	"sort"
	"time"
)

// Host-speed calibration.
//
// On a 2-vCPU virtual machine on a shared cloud host, the same
// op on the same seed takes 200 ms in one minute and 370 ms in the next:
// the host switches the guest between a fast and a slow state for
// seconds to minutes at a time, and medians of raw wall time spread by
// 30–60% between runs. A fixed kernel timed next to the ops slows down
// in step, so every reported time is normalized by it:
//
//	reported = measured × calibRef / kernel time around the op
//
// which is the time the op would take on a host where the kernel runs in
// calibRef. The kernel is the benchmark's own code, so a change to the
// program cannot move it; on a steady host the factor stays near 1.
// The kernel fills a 4 MiB table from a splitmix stream and then runs a
// switch-dispatched register machine with loads and stores across the
// table — the memory-filling and interpreter shapes that dominate the
// simulator. On two-minute figure8 traces it cut the spread of 30-second
// medians from 29% to 4%.
const calibRef = 6 * time.Millisecond

var calibTable = make([]uint64, 1<<19)

// calibSink keeps the kernel's result live.
var calibSink uint64

func calibKernel() uint64 {
	x := uint64(0x243F6A8885A308D3)
	for i := range calibTable {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		calibTable[i] = z ^ (z >> 31)
	}
	var regs [16]uint64
	regs[1] = x
	prog := [16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 2, 5, 1, 3, 0, 6, 4, 7}
	pc := 0
	for i := 0; i < 1_000_000; i++ {
		a := int(regs[(pc+1)&15] & 15)
		switch prog[pc&15] {
		case 0:
			regs[a] ^= regs[1] << 7
		case 1:
			regs[1] = regs[1]*6364136223846793005 + 1442695040888963407
		case 2:
			calibTable[regs[1]>>45] += regs[a]
		case 3:
			regs[a] = calibTable[(regs[a]>>13)&(1<<19-1)]
		case 4:
			if regs[1]&1 == 0 {
				pc += 3
			}
		case 5:
			regs[a] += regs[(a+3)&15] >> 3
		case 6:
			if regs[a] > regs[1] {
				pc++
			}
		default:
			regs[a] = regs[a]*31 + uint64(i)
		}
		pc++
	}
	return regs[0] ^ regs[5]
}

// calibrate times one run of the kernel.
func calibrate() time.Duration {
	t0 := time.Now()
	calibSink += calibKernel()
	return time.Since(t0)
}

// normalize converts a measured duration to reference-host time, given
// the kernel times measured just before and just after it.
func normalize(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibRef) / (float64(before+after) / 2))
}

// calibLog is a time-ordered series of kernel timings taken while the
// load paused; a request is normalized by the samples around it.
type calibLog struct {
	at []time.Time
	c  []time.Duration
}

func (l *calibLog) add(at time.Time, c time.Duration) {
	l.at = append(l.at, at)
	l.c = append(l.c, c)
}

// around returns the samples taken last before t and first after it.
func (l *calibLog) around(t time.Time) (time.Duration, time.Duration) {
	i := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(t) })
	switch {
	case i == 0:
		return l.c[0], l.c[0]
	case i == len(l.at):
		return l.c[i-1], l.c[i-1]
	}
	return l.c[i-1], l.c[i]
}
