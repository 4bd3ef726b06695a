// Package sim provides the simulation clock, the physical environment
// (ambient temperature), and a structured event log shared by every
// subsystem of the Volt Boot reproduction.
//
// Time is discrete and measured in nanoseconds from the start of a
// scenario. Subsystems never tick continuously; instead they record the
// timestamps of the events that matter (a rail dropping below a cell's
// retention voltage, a refresh, a power-up) and integrate the physics
// lazily over the interval, which keeps a full attack run at
// O(cells + events) instead of O(cells × nanoseconds).
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Convenient duration constants in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the timestamp expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the timestamp expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(t)/float64(Second))
	}
}

// CelsiusToKelvin converts a temperature in degrees Celsius to Kelvin.
func CelsiusToKelvin(c float64) float64 { return c + 273.15 }

// Env is the shared simulation environment: the clock and the ambient
// temperature seen by every die in the scenario. A thermal chamber changes
// the temperature; everything else reads it.
type Env struct {
	now Time
	// tempC is the ambient temperature in degrees Celsius.
	tempC float64
	log   *EventLog
}

// NewEnv returns an environment at time zero and room temperature (25°C)
// with an empty event log.
func NewEnv() *Env {
	return &Env{tempC: 25, log: NewEventLog()}
}

// NewQuietEnv returns an environment with no log sink attached: every
// Logf call is a cheap nil check, with no formatting and no event
// allocation. The parallel experiment runner uses quiet environments for
// its trial boards — the per-excursion decay logs of a megabyte-scale
// array are pure overhead when nobody reads them.
func NewQuietEnv() *Env {
	return &Env{tempC: 25}
}

// Now returns the current simulation time.
func (e *Env) Now() Time { return e.now }

// Advance moves the clock forward by d. It panics on negative durations:
// simulated time never runs backwards.
func (e *Env) Advance(d Time) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	e.now += d
}

// Rewind sets the clock and temperature to a previously observed point,
// bypassing Advance's forward-only invariant. It exists solely for
// snapshot restores (see soc.Snapshot): a restored trial re-lives the
// interval after the fork, so the clock legitimately runs backwards to
// the capture instant. The change is deliberately unlogged — restores
// happen on quiet trial environments and must not perturb event streams.
func (e *Env) Rewind(now Time, tempC float64) {
	e.now = now
	e.tempC = tempC
}

// TemperatureC returns the ambient temperature in degrees Celsius.
func (e *Env) TemperatureC() float64 { return e.tempC }

// TemperatureK returns the ambient temperature in Kelvin.
func (e *Env) TemperatureK() float64 { return CelsiusToKelvin(e.tempC) }

// SetTemperatureC sets the ambient temperature. The change is logged; the
// environment models an idealized chamber where the die instantly reaches
// the set point (the paper statically soaks boards for an hour, which this
// idealization stands in for).
func (e *Env) SetTemperatureC(c float64) {
	e.tempC = c
	e.Logf("env", "temperature set to %.1f°C", c)
}

// Log returns the environment's event log, or nil for a quiet
// environment.
func (e *Env) Log() *EventLog { return e.log }

// Logf records a formatted event attributed to a subsystem. When no sink
// is attached the call returns before any formatting or event allocation
// happens.
func (e *Env) Logf(subsystem, format string, args ...any) {
	if e.log == nil {
		return
	}
	e.log.Add(e.now, subsystem, fmt.Sprintf(format, args...)) //voltvet:ignore VV-HOT001 log formatting sits behind the nil-log fast path; campaigns attach no log
}

// Event is one timestamped entry in the scenario log.
type Event struct {
	At        Time
	Subsystem string
	Message   string
}

func (ev Event) String() string {
	return fmt.Sprintf("%12s  %-10s %s", ev.At, ev.Subsystem, ev.Message)
}

// EventLog is an append-only list of events, used both for debugging and to
// render the "attack execution steps" figure.
type EventLog struct {
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Add appends an event.
func (l *EventLog) Add(at Time, subsystem, message string) {
	l.events = append(l.events, Event{At: at, Subsystem: subsystem, Message: message})
}

// Events returns a copy of all events in insertion order.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len reports the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Subsystems returns the sorted set of subsystems that logged at least one
// event.
func (l *EventLog) Subsystems() []string {
	set := map[string]bool{}
	for _, ev := range l.events {
		set[ev.Subsystem] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Filter returns the events attributed to the given subsystem.
func (l *EventLog) Filter(subsystem string) []Event {
	var out []Event
	for _, ev := range l.events {
		if ev.Subsystem == subsystem {
			out = append(out, ev)
		}
	}
	return out
}

// String renders the whole log, one event per line.
func (l *EventLog) String() string {
	var b strings.Builder
	for _, ev := range l.events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
