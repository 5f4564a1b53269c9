package netsim

import "testing"

func TestCapacityScaleThrottlesService(t *testing.T) {
	cfg := DefaultExperimentConfig()
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := [NumResources]float64{0.5, 0.5, 0.5}
	nominal := env.c.serviceRate(env.c.ras[0].capScale, 0, full)
	if err := env.SetCapacityScale(0.25); err != nil {
		t.Fatal(err)
	}
	if got := env.c.ras[0].capScale; got != 0.25 {
		t.Errorf("capacity scale = %v, want 0.25", got)
	}
	degraded := env.c.serviceRate(env.c.ras[0].capScale, 0, full)
	if want := nominal * 0.25; degraded != want {
		t.Errorf("degraded rate = %v, want %v", degraded, want)
	}
	if err := env.SetCapacityScale(1); err != nil {
		t.Fatal(err)
	}
	restored := env.c.serviceRate(env.c.ras[0].capScale, 0, full)
	if restored != nominal {
		t.Errorf("restored rate = %v, want %v", restored, nominal)
	}
}

func TestCapacityScaleRejectsInvalid(t *testing.T) {
	env, err := New(DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, -1} {
		if err := env.SetCapacityScale(bad); err == nil {
			t.Errorf("SetCapacityScale(%v) accepted", bad)
		}
	}
}

func TestNewEnvNominalCapacityScale(t *testing.T) {
	env, err := New(DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := env.c.ras[0].capScale; got != 1 {
		t.Errorf("fresh env capacity scale = %v, want 1", got)
	}
}
