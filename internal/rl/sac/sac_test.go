package sac

import (
	"math/rand"
	"testing"

	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, DefaultConfig()); err == nil {
		t.Error("invalid dims should fail")
	}
}

func TestActBounds(t *testing.T) {
	a, err := New(2, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5)) //nolint:gosec // test
	for i := 0; i < 100; i++ {
		state := []float64{rng.NormFloat64(), rng.NormFloat64()}
		for _, v := range a.Act(state) {
			if v < 0 || v > 1 {
				t.Fatalf("deterministic action %v out of [0,1]", v)
			}
		}
		act, _, _, _ := a.sampleAction(state)
		for _, v := range act {
			if v < 0 || v > 1 {
				t.Fatalf("sampled action %v out of [0,1]", v)
			}
		}
	}
}

func TestSACLearnsTargetTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rng := rand.New(rand.NewSource(61)) //nolint:gosec // test
	env := rltest.NewTargetEnv(rng, 2, 2, 64)
	cfg := DefaultConfig()
	cfg.Hidden = 32
	cfg.BatchSize = 32
	cfg.WarmupSteps = 200
	agent, err := New(env.StateDim(), env.ActionDim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evalRng := rand.New(rand.NewSource(101)) //nolint:gosec // test
	before := rltest.EvalLoss(evalRng, env, agent, 200)
	if err := agent.Train(env, 3000); err != nil {
		t.Fatal(err)
	}
	after := rltest.EvalLoss(evalRng, env, agent, 200)
	if after >= before*0.7 {
		t.Errorf("SAC did not learn: loss %v -> %v", before, after)
	}
}

// A warm Update step must not allocate: the batch buffer, workspace
// matrices, layer scratch, and optimizer state are all reused.
func TestUpdateAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.BatchSize = 8
	cfg.WarmupSteps = 10
	a, err := New(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13)) //nolint:gosec // test
	for i := 0; i < cfg.WarmupSteps+1; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a.Observe(rl.Transition{State: s, Action: []float64{0.5, 0.5}, Reward: -1, NextState: s})
	}
	if err := a.Update(); err != nil { // warm the workspaces
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(6, func() {
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Update allocates %v objects per step, want 0", allocs)
	}
}
