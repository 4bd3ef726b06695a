// Package hotpathpkg exercises the hot-path allocation checks:
// functions the //voltvet:hotpath root seeds reach may not allocate on
// the live path, while error and panic paths stay exempt, and
// functions no root reaches are ignored entirely.
package hotpathpkg

import (
	"errors"
	"fmt"
)

// Sink consumes an interface so boxing call sites are observable.
func Sink(v any) {}

// take consumes a closure.
func take(f func() int) int { return f() }

// Step is the fixture hot function: every construct below defeats the
// zero-alloc contract.
//
//voltvet:hotpath root
func Step(name string, n int) (int, error) {
	if n < 0 {
		// Cold: the Sprintf feeds panic, the Errorf is a return operand.
		if n < -10 {
			panic(fmt.Sprintf("step: wildly negative %d", n))
		}
		return 0, fmt.Errorf("step: negative %d", n)
	}
	label := fmt.Sprintf("step-%d", n)                // want "VV-HOT001"
	tag := name + label                               // want "VV-HOT002"
	total := take(func() int { return n + len(tag) }) // want "VV-HOT003"
	Sink(n)                                           // want "VV-HOT004"
	return total, nil
}

// Warm allocates the same way but no root reaches it; nothing is
// reported.
func Warm(name string, n int) string {
	label := fmt.Sprintf("%s-%d", name, n)
	return label
}

// Fast shows the allocation-free shapes the analyzer accepts.
//
//voltvet:hotpath root
func Fast(buf []byte, n int) (int, error) {
	if n >= len(buf) {
		return 0, errors.New("out of range")
	}
	buf[n] = byte(n)
	return int(buf[n]) + n, nil
}
