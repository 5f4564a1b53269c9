package ddpg

import (
	"math/rand"
	"testing"

	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 32
	cfg.BatchSize = 32
	cfg.WarmupSteps = 100
	cfg.NoiseDecay = 0.999
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, DefaultConfig()); err == nil {
		t.Error("state dim 0 should fail")
	}
	if _, err := New(2, 0, DefaultConfig()); err == nil {
		t.Error("action dim 0 should fail")
	}
	bad := DefaultConfig()
	bad.BatchSize = 0
	if _, err := New(2, 2, bad); err == nil {
		t.Error("batch size 0 should fail")
	}
}

func TestActBounds(t *testing.T) {
	a, err := New(3, 2, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9)) //nolint:gosec // test
	for i := 0; i < 200; i++ {
		state := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		for _, fn := range []func([]float64) []float64{a.Act, a.ActExplore} {
			for _, v := range fn(state) {
				if v < 0 || v > 1 {
					t.Fatalf("action %v out of [0,1]", v)
				}
			}
		}
	}
}

func TestUpdateNoopBeforeWarmup(t *testing.T) {
	a, err := New(2, 1, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(rl.Transition{State: []float64{0, 0}, Action: []float64{0.5}, NextState: []float64{0, 0}})
	if err := a.Update(); err != nil {
		t.Fatal(err)
	}
	if a.Updates() != 0 {
		t.Error("update should be a no-op before warmup")
	}
}

func TestDDPGLearnsTargetTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rng := rand.New(rand.NewSource(11)) //nolint:gosec // test
	env := rltest.NewTargetEnv(rng, 2, 2, 64)
	agent, err := New(env.StateDim(), env.ActionDim(), fastConfig())
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
		t.Errorf("DDPG did not learn: loss %v -> %v", before, after)
	}
	random := rltest.EvalLoss(evalRng, env, &rltest.RandomAgent{Rng: evalRng, ADim: 2}, 200)
	if after >= random {
		t.Errorf("trained DDPG (%v) should beat random (%v)", after, random)
	}
}

// A warm Update step must not allocate: the batch buffer, workspace
// matrices, layer scratch, and optimizer state are all reused.
func TestUpdateAllocFree(t *testing.T) {
	cfg := fastConfig()
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
	allocs := testing.AllocsPerRun(5, func() {
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Update allocates %v objects per step, want 0", allocs)
	}
}

func TestQEvaluation(t *testing.T) {
	a, err := New(2, 1, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := a.Q([]float64{0.1, 0.2}, []float64{0.5})
	if q != a.Q([]float64{0.1, 0.2}, []float64{0.5}) {
		t.Error("Q should be deterministic")
	}
}

// BenchmarkDDPGUpdate measures one gradient update of the paper-sized
// (2x128) actor-critic pair with batch 512. One warm-up update runs before
// the timer so the benchmark reports the steady state the training loop
// actually lives in (allocation-free with the nn workspaces).
func BenchmarkDDPGUpdate(b *testing.B) {
	cfg := DefaultConfig()
	agent, err := New(4, 6, cfg)
	if err != nil {
		b.Fatal(err)
	}
	state := []float64{0.1, 0.2, -0.3, -0.4}
	for i := 0; i < cfg.WarmupSteps+1; i++ {
		agent.Observe(rl.Transition{
			State: state, Action: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
			Reward: -1, NextState: state,
		})
	}
	if err := agent.Update(); err != nil { // size the workspaces
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Update(); err != nil {
			b.Fatal(err)
		}
	}
}
