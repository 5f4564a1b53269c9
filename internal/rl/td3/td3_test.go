package td3

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
	bad := DefaultConfig()
	bad.PolicyDelay = 0
	if _, err := New(2, 1, bad); err == nil {
		t.Error("zero policy delay should fail")
	}
}

func TestActBounds(t *testing.T) {
	a, err := New(2, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3)) //nolint:gosec // test
	for i := 0; i < 100; i++ {
		s := []float64{rng.NormFloat64(), rng.NormFloat64()}
		for _, fn := range []func([]float64) []float64{a.Act, a.ActExplore} {
			for _, v := range fn(s) {
				if v < 0 || v > 1 {
					t.Fatalf("action %v out of [0,1]", v)
				}
			}
		}
	}
}

func TestPolicyDelay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupSteps = 4
	cfg.BatchSize = 4
	cfg.PolicyDelay = 3
	a, err := New(2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := a.actor.FlattenParams()
	for i := 0; i < 4; i++ {
		x := float64(i)
		a.Observe(rl.Transition{
			State:     []float64{x, -x},
			Action:    []float64{0.5},
			Reward:    -x,
			NextState: []float64{x + 1, -x},
		})
	}
	// Two updates: actor must not move (delay 3).
	for i := 0; i < 2; i++ {
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
	}
	after := a.actor.FlattenParams()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("actor updated before the policy delay elapsed")
		}
	}
	// Third update triggers the delayed actor step.
	if err := a.Update(); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, v := range a.actor.FlattenParams() {
		if v != before[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("actor should update on the delayed step")
	}
}

func TestTD3LearnsTargetTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rng := rand.New(rand.NewSource(71)) //nolint:gosec // test
	env := rltest.NewTargetEnv(rng, 2, 2, 64)
	cfg := DefaultConfig()
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
	if after >= before*0.5 {
		t.Errorf("TD3 did not learn: loss %v -> %v", before, after)
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
	for i := 0; i < 2; i++ { // warm the workspaces, on both sides of the policy delay
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
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
