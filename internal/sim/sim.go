// Package sim provides the simulation clock and the physical environment
// (ambient temperature) shared by every subsystem of the Volt Boot
// reproduction.
//
// Time is discrete and measured in nanoseconds from the start of a
// scenario. Subsystems never tick continuously; instead they record the
// timestamps of the events that matter (a rail dropping below a cell's
// retention voltage, a refresh, a power-up) and integrate the physics
// lazily over the interval, which keeps a full attack run at
// O(cells + events) instead of O(cells × nanoseconds).
package sim

import "fmt"

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Convenient duration constants in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

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
}

// NewEnv returns an environment at time zero and room temperature (25°C).
func NewEnv() *Env {
	return &Env{tempC: 25}
}

// NewQuietEnv is NewEnv. It stays only because the benchmark driver in
// perfbench/ calls it.
func NewQuietEnv() *Env { return NewEnv() }

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
// the capture instant.
func (e *Env) Rewind(now Time, tempC float64) {
	e.now = now
	e.tempC = tempC
}

// TemperatureC returns the ambient temperature in degrees Celsius.
func (e *Env) TemperatureC() float64 { return e.tempC }

// TemperatureK returns the ambient temperature in Kelvin.
func (e *Env) TemperatureK() float64 { return CelsiusToKelvin(e.tempC) }

// SetTemperatureC sets the ambient temperature. The environment models
// an idealized chamber where the die instantly reaches the set point (the
// paper statically soaks boards for an hour, which this idealization
// stands in for).
func (e *Env) SetTemperatureC(c float64) {
	e.tempC = c
}
