package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share Op; Parent is the index of the enclosing span, -1 for an op's
// root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Instr is the exact isa.CPU.Instret delta of an execution span.
	Instr uint64 `json:"instr,omitempty"`
	// Workers is the fan-out width of a runner span.
	Workers int `json:"workers,omitempty"`
}

// tracer keeps every span in memory; dump writes them out once the
// measurement is over. Worker goroutines of a runner fan-out record
// concurrently, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is an open span; child opens a span beneath it.
type scope struct {
	t  *tracer
	op int
	id int
}

func (t *tracer) begin(op, parent int, name string) scope {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	t.mu.Unlock()
	return scope{t: t, op: op, id: id}
}

// root opens the root span of op.
func (t *tracer) root(op int, name string) scope { return t.begin(op, -1, name) }

// add records a finished root span that belongs to no op.
func (t *tracer) add(name string, start time.Time, d time.Duration) {
	a := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, StartNs: a, EndNs: a + d.Nanoseconds()})
	t.mu.Unlock()
}

func (s scope) child(name string) scope { return s.t.begin(s.op, s.id, name) }

func (s scope) end() { s.finish(0, 0) }

func (s scope) finish(instr uint64, workers int) {
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.EndNs, sp.Instr, sp.Workers = now, instr, workers
	s.t.mu.Unlock()
}

// dump writes every span as one JSON array.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of a runner fan-out
// run on several goroutines at once, so the covered part is the union
// of their intervals, not their sum.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].StartNs, spans[k].EndNs
			if a < sp.StartNs {
				a = sp.StartNs
			}
			if b > sp.EndNs {
				b = sp.EndNs
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = sp.EndNs - sp.StartNs - covered
	}
	return self
}
