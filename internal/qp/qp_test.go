package qp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProjectHalfspaceAlreadyFeasible(t *testing.T) {
	c := []float64{3, 4}
	z := make([]float64, 2)
	ProjectHalfspaceSumGEInto(z, c, 5)
	for i := range c {
		if z[i] != c[i] {
			t.Errorf("feasible point should be unchanged: %v", z)
		}
	}
}

func TestProjectHalfspaceShifts(t *testing.T) {
	z := []float64{0, 0}
	ProjectHalfspaceSumGEInto(z, z, 4)
	if z[0] != 2 || z[1] != 2 {
		t.Errorf("projection = %v, want [2 2]", z)
	}
}

// An empty vector has no coordinate to shift: the shift (b − Σc)/n is ±Inf
// at n = 0, and the projection must write nothing rather than panic.
func TestProjectHalfspaceEmpty(t *testing.T) {
	for _, b := range []float64{1, -1, 0} {
		dst := []float64{}
		ProjectHalfspaceSumGEInto(dst, nil, b)
		if len(dst) != 0 {
			t.Errorf("b = %v: projection of the empty vector is %v", b, dst)
		}
	}
}

// Property: the result satisfies the KKT conditions of
// min ½‖z − c‖² s.t. Σ z ≥ b, which for this convex problem certify that
// no feasible point is closer to c: z is feasible, z − c = λ·1 with λ ≥ 0,
// and λ > 0 only when the constraint is tight.
func TestProjectionOptimalityProperty(t *testing.T) {
	f := func(rawC []float64, rawB float64) bool {
		if len(rawC) == 0 || len(rawC) > 8 {
			return true
		}
		c := make([]float64, len(rawC))
		for i, v := range rawC {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			c[i] = math.Mod(v, 100)
		}
		if math.IsNaN(rawB) || math.IsInf(rawB, 0) {
			return true
		}
		b := math.Mod(rawB, 100)

		z := make([]float64, len(c))
		ProjectHalfspaceSumGEInto(z, c, b)
		var sum float64
		for _, v := range z {
			sum += v
		}
		if sum < b-1e-6 {
			return false // infeasible
		}
		lambda := z[0] - c[0]
		if lambda < -1e-9 {
			return false
		}
		for i := range c {
			if math.Abs(z[i]-c[i]-lambda) > 1e-9 {
				return false // not a shift along the constraint normal
			}
		}
		return lambda <= 1e-9 || math.Abs(sum-b) <= 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
