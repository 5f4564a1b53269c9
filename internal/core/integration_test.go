package core

import (
	"testing"
)

// TestEdgeSliceBeatsTARO is the headline integration test: a trained
// EdgeSlice system must outperform the TARO baseline on the prototype
// experiment (Fig. 6a's qualitative result).
func TestEdgeSliceBeatsTARO(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	steady := func(algo Algorithm) float64 {
		cfg := DefaultConfig()
		cfg.Algo = algo
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Train(); err != nil {
			t.Fatal(err)
		}
		h, err := sys.RunPeriods(10)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := h.MeanSystemPerf(h.Intervals() / 2)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	edge := steady(AlgoEdgeSlice)
	taro := steady(AlgoTARO)
	if edge <= taro {
		t.Errorf("EdgeSlice (%v) should beat TARO (%v)", edge, taro)
	}
	t.Logf("EdgeSlice %.1f vs TARO %.1f (%.1fx)", edge, taro, taro/min(edge, -1e-9))
}

// TestSLAEnforcement checks that a trained system converges to meeting the
// per-slice SLAs (Fig. 6b: "both network slices meet their minimum
// performance requirements").
func TestSLAEnforcement(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriods(10)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := h.SLASatisfactionRate(5) // last 5 periods
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.5 {
		t.Errorf("steady-state SLA satisfaction %.0f%% is too low", rate*100)
	}
}

// TestCoordinatorResidualsShrink verifies the Algorithm 1 convergence
// behaviour: the dual residual in the final periods should be small once
// the agents settle.
func TestCoordinatorResidualsShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriods(12)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, early := h.Period(1)
	_, late := h.LastResiduals()
	if late > early && late > 100 {
		t.Errorf("dual residual grew: %v -> %v", early, late)
	}
}
