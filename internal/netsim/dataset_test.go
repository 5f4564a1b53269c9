package netsim

import (
	"math"
	"testing"
)

func TestBuildDatasetValidation(t *testing.T) {
	env, _ := New(DefaultExperimentConfig())
	if _, err := BuildDataset(env, 0); err == nil {
		t.Error("zero granularity should fail")
	}
	if _, err := BuildDataset(env, 0.9); err == nil {
		t.Error("too-coarse granularity should fail")
	}
}

func TestDatasetShape(t *testing.T) {
	env, _ := New(DefaultExperimentConfig())
	ds, err := BuildDataset(env, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 11 { // 0%, 10%, ..., 100%
		t.Errorf("samples per pair = %d, want 11", ds.NumSamples())
	}
	if ds.Granularity() != 0.1 {
		t.Errorf("granularity = %v", ds.Granularity())
	}
}

// The local linear model must reproduce the analytic service rates at
// off-grid actions: the underlying rate is exactly linear in the share, so
// predictions should match to high precision (the paper's [12,38,22]% case).
func TestDatasetPredictsOffGridActions(t *testing.T) {
	env, _ := New(DefaultExperimentConfig())
	ds, err := BuildDataset(env, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for slice := 0; slice < 2; slice++ {
		for k := 0; k < NumResources; k++ {
			for _, share := range []float64{0.12, 0.38, 0.22, 0.55, 0.91} {
				got, err := ds.PredictRate(slice, k, share)
				if err != nil {
					t.Fatal(err)
				}
				want := share * env.cfg.Capacity[k] / env.demands[slice][k] // the analytic share·C/d
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Errorf("slice %d %s share %v: predicted %v, want %v",
						slice, ResourceNames[k], share, got, want)
				}
			}
		}
	}
}

func TestDatasetServiceTimeBottleneck(t *testing.T) {
	env, _ := New(DefaultExperimentConfig())
	ds, _ := BuildDataset(env, 0.1)
	// Slice 1 (traffic-heavy): starving radio must dominate service time.
	stRadioStarved, err := ds.PredictServiceTime(0, [NumResources]float64{0.01, 0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	stBalanced, err := ds.PredictServiceTime(0, [NumResources]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if stRadioStarved <= stBalanced {
		t.Errorf("radio-starved %v should exceed balanced %v", stRadioStarved, stBalanced)
	}
	// Zero allocation → capped service time.
	stZero, err := ds.PredictServiceTime(0, [NumResources]float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if stZero != 1e3 {
		t.Errorf("zero allocation service time = %v, want cap 1e3", stZero)
	}
}

func TestDatasetPredictValidation(t *testing.T) {
	env, _ := New(DefaultExperimentConfig())
	ds, _ := BuildDataset(env, 0.1)
	if _, err := ds.PredictRate(-1, 0, 0.5); err == nil {
		t.Error("bad slice should fail")
	}
	if _, err := ds.PredictRate(0, 99, 0.5); err == nil {
		t.Error("bad resource should fail")
	}
}

// Offline mode must closely track the analytic environment: the dataset's
// local linear fits are exact for the linear per-domain rate model, so the
// two environments should produce identical trajectories.
func TestOfflineEnvMatchesAnalytic(t *testing.T) {
	run := func(offline bool) []int {
		cfg := DefaultExperimentConfig()
		cfg.TrainCoordRandom = false
		cfg.Seed = 4
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if offline {
			ds, err := BuildDataset(e, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			e.UseDataset(ds)
		}
		e.Reset()
		action := []float64{0.63, 0.71, 0.22, 0.05, 0.08, 0.57}
		var served []int
		for i := 0; i < 60; i++ {
			res, err := e.StepInterval(action)
			if err != nil {
				t.Fatal(err)
			}
			served = append(served, res.Served[0], res.Served[1])
		}
		return served
	}
	analytic := run(false)
	offline := run(true)
	diffs := 0
	for i := range analytic {
		if analytic[i] != offline[i] {
			diffs++
		}
	}
	// Local fits are exact on the linear model; allow a tiny slack for
	// floating-point edge effects in the projection.
	if diffs > len(analytic)/20 {
		t.Errorf("offline env diverged from analytic in %d/%d samples", diffs, len(analytic))
	}
}
