package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{-1, 0, 1, 0},
		{0.5, 0, 1, 0.5},
		{2, 0, 1, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPosPart(t *testing.T) {
	if PosPart(-3) != 0 || PosPart(2) != 2 || PosPart(0) != 0 {
		t.Error("PosPart incorrect")
	}
}

func TestCDF(t *testing.T) {
	samples := Vec{1, 2, 3, 4}
	pts := EmpiricalCDF(samples)
	if len(pts) != 4 {
		t.Fatalf("CDF points = %d, want 4", len(pts))
	}
	if pts[3].Prob != 1 {
		t.Errorf("last CDF prob = %v, want 1", pts[3].Prob)
	}
	if EmpiricalCDF(nil) != nil {
		t.Error("EmpiricalCDF(nil) should be nil")
	}
}

// Property: empirical CDF is monotone nondecreasing in both value and prob.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		v := make(Vec, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, x)
			}
		}
		pts := EmpiricalCDF(v)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].Prob < pts[i-1].Prob {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
