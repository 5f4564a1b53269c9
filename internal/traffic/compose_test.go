package traffic

import (
	"math"
	"testing"
)

func TestPulseWindow(t *testing.T) {
	p := Pulse{Start: 10, Duration: 5, Factor: 3}
	cases := map[int]float64{9: 1, 10: 3, 14: 3, 15: 1}
	for interval, want := range cases {
		if got := p.FactorAt(interval); got != want {
			t.Errorf("Pulse.FactorAt(%d) = %v, want %v", interval, got, want)
		}
	}
}

func TestRampInterpolatesAndHolds(t *testing.T) {
	r := Ramp{Start: 10, Duration: 10, To: 3}
	if got := r.FactorAt(9); got != 1 {
		t.Errorf("before ramp: %v, want 1", got)
	}
	if got := r.FactorAt(15); math.Abs(got-2) > 1e-12 {
		t.Errorf("mid ramp: %v, want 2", got)
	}
	if got := r.FactorAt(100); got != 3 {
		t.Errorf("after ramp: %v, want 3 (held)", got)
	}
	degenerate := Ramp{Start: 10, Duration: 0, To: 5}
	if got := degenerate.FactorAt(20); got != 1 {
		t.Errorf("zero-duration ramp: %v, want 1", got)
	}
}

func TestGateWindow(t *testing.T) {
	g := Gate{Start: 30, End: 70}
	cases := map[int]float64{29: 0, 30: 1, 69: 1, 70: 0}
	for interval, want := range cases {
		if got := g.FactorAt(interval); got != want {
			t.Errorf("Gate.FactorAt(%d) = %v, want %v", interval, got, want)
		}
	}
	open := Gate{Start: 5}
	if got := open.FactorAt(1 << 20); got != 1 {
		t.Errorf("open-ended gate closed at large interval: %v", got)
	}
}

func TestModulatedStacksMultiplicatively(t *testing.T) {
	src := Modulated{
		Base: ConstantSource{Lambda: 10},
		Mods: []Modulator{
			Pulse{Start: 0, Duration: 100, Factor: 2},
			Ramp{Start: 0, Duration: 0, To: 5}, // inert
			Gate{Start: 0},
		},
	}
	if got := src.Rate(50); got != 20 {
		t.Errorf("Rate(50) = %v, want 20", got)
	}
	gated := Modulated{Base: ConstantSource{Lambda: 10}, Mods: []Modulator{Gate{Start: 60}}}
	if got := gated.Rate(50); got != 0 {
		t.Errorf("gated Rate(50) = %v, want 0", got)
	}
}

func TestModulatedClampsNegative(t *testing.T) {
	src := Modulated{
		Base: ConstantSource{Lambda: -5}, // malformed base
		Mods: []Modulator{Pulse{Start: 0, Duration: 10, Factor: 2}},
	}
	if got := src.Rate(0); got != 0 {
		t.Errorf("Rate = %v, want clamp to 0", got)
	}
}

func TestModulatedDeterministic(t *testing.T) {
	src := Modulated{
		Base: VariableSource{Lo: 4, Hi: 10, BlockLen: 5, Seed: 42},
		Mods: []Modulator{Pulse{Start: 10, Duration: 10, Factor: 3}},
	}
	for interval := 0; interval < 50; interval++ {
		if a, b := src.Rate(interval), src.Rate(interval); a != b {
			t.Fatalf("Rate(%d) not deterministic: %v vs %v", interval, a, b)
		}
	}
}
