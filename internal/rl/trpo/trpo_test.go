package trpo

import (
	"math/rand"
	"testing"

	"edgeslice/internal/rl/rltest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, DefaultConfig()); err == nil {
		t.Error("invalid dims should fail")
	}
}

func TestConjGradSolvesSPDSystem(t *testing.T) {
	// F = diag(2, 4), b = (2, 8) -> x = (1, 2).
	fvp := func(v []float64) []float64 {
		return []float64{2 * v[0], 4 * v[1]}
	}
	x := conjGrad(fvp, []float64{2, 8}, 25)
	if diff := abs(x[0]-1) + abs(x[1]-2); diff > 1e-6 {
		t.Errorf("CG solution %v, want [1 2]", x)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTRPOLearnsTargetTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rng := rand.New(rand.NewSource(41)) //nolint:gosec // test
	env := rltest.NewTargetEnv(rng, 2, 2, 64)
	cfg := DefaultConfig()
	cfg.Hidden = 32
	cfg.Horizon = 128
	cfg.FisherSamples = 32
	agent, err := New(env.StateDim(), env.ActionDim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evalRng := rand.New(rand.NewSource(101)) //nolint:gosec // test
	before := rltest.EvalLoss(evalRng, env, agent, 200)
	if err := agent.Train(env, 6000); err != nil {
		t.Fatal(err)
	}
	after := rltest.EvalLoss(evalRng, env, agent, 200)
	if after >= before*0.8 {
		t.Errorf("TRPO did not learn: loss %v -> %v", before, after)
	}
}

func TestKLTrustRegionRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(51)) //nolint:gosec // test
	env := rltest.NewTargetEnv(rng, 2, 2, 32)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Horizon = 64
	cfg.FisherSamples = 16
	agent, err := New(env.StateDim(), env.ActionDim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One update; verify the policy didn't jump beyond ~1.5x the KL radius
	// by re-measuring KL from a snapshot.
	oldParams := agent.policy.FlattenParams()
	states, actions, _, _ := collectFor(agent, env, 64)
	oldMeans := make([][]float64, len(states))
	for i, s := range states {
		oldMeans[i] = agent.policy.Mean.Forward1(s)
	}
	oldLogStd := append([]float64(nil), agent.policy.LogStd...)

	adv := make([]float64, len(states))
	for i := range adv {
		adv[i] = rng.NormFloat64()
	}
	agent.policyStep(states, actions, adv)
	kl := agent.policy.KLMeanDiff(states, oldMeans, oldLogStd)
	if kl > cfg.MaxKL*1.5+1e-9 {
		t.Errorf("KL after step %v exceeds trust region %v", kl, cfg.MaxKL*1.5)
	}
	_ = oldParams
}

func collectFor(a *Agent, env *rltest.TargetEnv, n int) (states, actions [][]float64, rewards []float64, final []float64) {
	s := env.Reset()
	for i := 0; i < n; i++ {
		act := a.policy.Sample(a.rng, s)
		next, r, done := env.Step(act)
		states = append(states, s)
		actions = append(actions, act)
		rewards = append(rewards, r)
		if done {
			next = env.Reset()
		}
		s = next
	}
	return states, actions, rewards, s
}
