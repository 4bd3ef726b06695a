// Package hotclosurepkg shows that the hot-path checks follow the
// closure of a //voltvet:hotpath root, not markers: helpers the root
// reaches without any directive (mix directly, scale through a tail
// call) are flagged for allocating, an interface call is VV-HOT006 and
// CHA brings its implementation in, and describe, reached only as a
// panic argument, stays out of the closure and unflagged.
package hotclosurepkg

import "fmt"

// sink is the dispatch seam Step crosses on every iteration.
type sink interface {
	Put(x uint64)
}

// Accum is the only in-module implementation of sink.
type Accum struct{ total uint64 }

// Put is reached through the seam; CHA brings it into the closure.
func (a *Accum) Put(x uint64) {
	a.total += x
}

// last keeps the helpers' labels observable.
var last string

// Step is the closure seed: everything it reaches is held to the
// hot-path checks.
//
//voltvet:hotpath root
func Step(s sink, n uint64) uint64 {
	if n == 0 {
		panic(describe(n)) // cold: describe is only reached as a panic argument
	}
	v := mix(n)
	s.Put(v) // want "VV-HOT006"
	return scale(v)
}

// mix is hot without any directive: reachability alone puts its fmt
// call under the allocation checks.
func mix(n uint64) uint64 {
	last = fmt.Sprint(n) // want "VV-HOT001"
	return n*6364136223846793005 + 1442695040888963407
}

// scale is a tail call: return operands are hot for reachability, so
// the closure follows it and checks its body.
func scale(n uint64) uint64 {
	last = last + "/8" // want "VV-HOT002"
	return n >> 3
}

// describe only runs while dying; it must stay out of the closure even
// though it allocates freely.
func describe(n uint64) string {
	s := fmt.Sprint(n)
	return "step(" + s + ")"
}
