package sim

import (
	"math"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2µs"},
		{3 * Millisecond, "3ms"},
		{1500 * Millisecond, "1.5s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestCelsiusToKelvin(t *testing.T) {
	if got := CelsiusToKelvin(-40); math.Abs(got-233.15) > 1e-9 {
		t.Errorf("CelsiusToKelvin(-40) = %v", got)
	}
	if got := CelsiusToKelvin(0); math.Abs(got-273.15) > 1e-9 {
		t.Errorf("CelsiusToKelvin(0) = %v", got)
	}
}

func TestEnvClock(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatal("fresh env must start at time 0")
	}
	e.Advance(5 * Millisecond)
	e.Advance(3 * Microsecond)
	if e.Now() != 5*Millisecond+3*Microsecond {
		t.Fatalf("Now() = %v", e.Now())
	}
}

func TestEnvAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Advance")
		}
	}()
	NewEnv().Advance(-1)
}

func TestEnvTemperature(t *testing.T) {
	e := NewEnv()
	if e.TemperatureC() != 25 {
		t.Fatalf("default temperature = %v, want 25", e.TemperatureC())
	}
	e.SetTemperatureC(-40)
	if e.TemperatureC() != -40 {
		t.Fatalf("temperature = %v", e.TemperatureC())
	}
	if math.Abs(e.TemperatureK()-233.15) > 1e-9 {
		t.Fatalf("TemperatureK = %v", e.TemperatureK())
	}
}
