package admm

import (
	"math"
	"testing"
	"testing/quick"
)

func twoByTwo() Config {
	return Config{NumSlices: 2, NumRAs: 2, Rho: 1.0, UminPerSlice: []float64{-50, -50}}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero slices", Config{NumSlices: 0, NumRAs: 1, UminPerSlice: nil}},
		{"zero RAs", Config{NumSlices: 1, NumRAs: 0, UminPerSlice: []float64{0}}},
		{"negative rho", Config{NumSlices: 1, NumRAs: 1, Rho: -1, UminPerSlice: []float64{0}}},
		{"wrong umin len", Config{NumSlices: 2, NumRAs: 1, UminPerSlice: []float64{0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
	if err := twoByTwo().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestInitialState(t *testing.T) {
	c, err := NewCoordinator(twoByTwo())
	if err != nil {
		t.Fatal(err)
	}
	info := c.CoordInfo(0)
	for _, v := range info {
		if v != 0 {
			t.Errorf("initial coordinating info should be zero, got %v", info)
		}
	}
	if c.Converged(1e-9) {
		t.Error("should not be converged before any update")
	}
}

func TestUpdateShapeValidation(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	if err := c.Update([][]float64{{1, 2}}); err == nil {
		t.Error("wrong slice count should fail")
	}
	if err := c.Update([][]float64{{1}, {2}}); err == nil {
		t.Error("wrong RA count should fail")
	}
	if _, err := c.SLASatisfied([][]float64{{1}}); err == nil {
		t.Error("SLASatisfied with bad shape should fail")
	}
	if _, err := c.AugmentedLagrangian([][]float64{{1}}); err == nil {
		t.Error("AugmentedLagrangian with bad shape should fail")
	}
}

// When the reported performance already satisfies every SLA, the z-update
// must set z = perf + y, driving the residual to zero immediately.
func TestConvergesOnFeasiblePerformance(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	perf := [][]float64{{-10, -5}, {-8, -12}} // sums -15, -20 >= -50
	for k := 0; k < 3; k++ {
		if err := c.Update(perf); err != nil {
			t.Fatal(err)
		}
	}
	primal, dual := c.Residuals()
	if primal > 1e-9 || dual > 1e-9 {
		t.Errorf("residuals (%v, %v) should be ~0 for feasible perf", primal, dual)
	}
	if !c.Converged(1e-6) {
		t.Error("should be converged")
	}
	sla, err := c.SLASatisfied(perf)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range sla {
		if !ok {
			t.Errorf("slice %d SLA should be satisfied", i)
		}
	}
}

// When performance violates an SLA, the dual variable for that slice must
// grow negative (pressure to improve) and the coordinating information
// z − y must exceed the raw performance, signalling "do better here".
func TestDualPressureOnViolation(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	perf := [][]float64{{-40, -40}, {-10, -10}} // slice 0 sums -80 < -50
	if err := c.Update(perf); err != nil {
		t.Fatal(err)
	}
	info0 := c.CoordInfo(0)
	// For the violating slice, z-y should sit above the raw perf (-40).
	if info0[0] <= -40 {
		t.Errorf("coordinating info %v should exceed raw performance -40", info0[0])
	}
	sla, _ := c.SLASatisfied(perf)
	if sla[0] {
		t.Error("slice 0 SLA should be violated")
	}
	if !sla[1] {
		t.Error("slice 1 SLA should be satisfied")
	}
}

// TestSLASatisfiedIntoMatchesSLASatisfied pins the in-place form: the same
// flags as SLASatisfied, written into the caller's slice without allocating,
// and shape errors for a wrong grid or a wrong-length destination.
func TestSLASatisfiedIntoMatchesSLASatisfied(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	perf := [][]float64{{-40, -40}, {-10, -10}}
	want, err := c.SLASatisfied(perf)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]bool, 2)
	if n := testing.AllocsPerRun(10, func() {
		if err := c.SLASatisfiedInto(perf, got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SLASatisfiedInto allocates %v times", n)
	}
	if got[0] != want[0] || got[1] != want[1] {
		t.Errorf("SLASatisfiedInto = %v, SLASatisfied = %v", got, want)
	}
	if err := c.SLASatisfiedInto([][]float64{{1}}, got); err == nil {
		t.Error("bad grid shape should fail")
	}
	if err := c.SLASatisfiedInto(perf, got[:1]); err == nil {
		t.Error("short destination should fail")
	}
}

// Property: after a z-update, every slice's auxiliary variables satisfy the
// transformed SLA constraint (5): Σ_j z_ij >= Umin_i.
func TestZAlwaysFeasibleProperty(t *testing.T) {
	f := func(p00, p01, p10, p11 float64) bool {
		bound := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 200)
		}
		c, err := NewCoordinator(twoByTwo())
		if err != nil {
			return false
		}
		perf := [][]float64{{bound(p00), bound(p01)}, {bound(p10), bound(p11)}}
		for k := 0; k < 5; k++ {
			if err := c.Update(perf); err != nil {
				return false
			}
			z := c.Z()
			for i := range z {
				var sum float64
				for _, v := range z[i] {
					sum += v
				}
				if sum < -50-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Residuals should shrink over iterations when performance is stationary:
// ADMM on a fixed problem converges linearly (Hong & Luo, 2017).
func TestResidualTrendOnStationaryPerf(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	perf := [][]float64{{-30, -30}, {-20, -25}} // slice 0 violates (-60 < -50)
	var prev float64 = math.Inf(1)
	for k := 0; k < 50; k++ {
		if err := c.Update(perf); err != nil {
			t.Fatal(err)
		}
	}
	primal, _ := c.Residuals()
	// With stationary infeasible perf the primal residual tends to the
	// constant violation split; the dual residual must vanish.
	_, dual := c.Residuals()
	if dual > 1e-6 {
		t.Errorf("dual residual %v should vanish on stationary perf", dual)
	}
	_ = prev
	_ = primal
}

func TestIterationsCount(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	perf := [][]float64{{0, 0}, {0, 0}}
	for k := 0; k < 7; k++ {
		if err := c.Update(perf); err != nil {
			t.Fatal(err)
		}
	}
	if c.Iterations() != 7 {
		t.Errorf("Iterations = %d, want 7", c.Iterations())
	}
}

func TestAugmentedLagrangianFeasibleEqualsObjective(t *testing.T) {
	c, _ := NewCoordinator(twoByTwo())
	perf := [][]float64{{-5, -5}, {-5, -5}}
	if err := c.Update(perf); err != nil {
		t.Fatal(err)
	}
	// After converging on feasible perf, z = perf + y ⇒ penalty term is
	// y², but y stays 0, so Ly equals the plain objective Σ perf.
	ly, err := c.AugmentedLagrangian(perf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ly-(-20)) > 1e-9 {
		t.Errorf("Ly = %v, want -20", ly)
	}
}
