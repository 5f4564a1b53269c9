package onpolicy

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgeslice/internal/rl/rltest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 1, DefaultConfig("a2c")); err == nil || !strings.Contains(err.Error(), "unknown technique") {
		t.Errorf("unknown technique: New error %v, want one containing %q", err, "unknown technique")
	}
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			config := func(edit func(*Config)) Config {
				cfg := DefaultConfig(tech)
				edit(&cfg)
				return cfg
			}
			for _, tc := range []struct {
				name, want string
				sd         int
				cfg        Config
			}{
				{"state 0", "invalid dimensions", 0, DefaultConfig(tech)},
				{"state -1", "invalid dimensions", -1, DefaultConfig(tech)},
				{"horizon 0", "invalid config", 2, config(func(c *Config) { c.Horizon = 0 })},
				{"hidden 0", "invalid config", 2, config(func(c *Config) { c.Hidden = 0 })},
			} {
				if _, err := New(tc.sd, 1, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: New error %v, want one containing %q", tc.name, err, tc.want)
				}
			}
			// The minibatch size is PPO's alone.
			_, err := New(2, 1, config(func(c *Config) { c.MinibatchSz = 0 }))
			if tech == PPO && (err == nil || !strings.Contains(err.Error(), "invalid config")) {
				t.Errorf("ppo minibatch 0: New error %v, want one containing %q", err, "invalid config")
			}
			if tech != PPO && err != nil {
				t.Errorf("%s with no minibatch size: %v", tech, err)
			}
		})
	}
}

func TestLearnsTargetTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	for _, tc := range []struct {
		tech    string
		envSeed int64
		steps   int
		ratio   float64 // the trained loss must fall below ratio × the untrained one
		edit    func(*Config)
	}{
		{VPG, 31, 20000, 0.8, func(c *Config) { c.PolicyLR = 5e-3 }},
		{PPO, 21, 6000, 0.7, func(c *Config) { c.PolicyLR = 1e-3 }},
		{TRPO, 41, 6000, 0.8, func(c *Config) { c.FisherSamples = 32 }},
	} {
		t.Run(tc.tech, func(t *testing.T) {
			env := rltest.NewTargetEnv(rand.New(rand.NewSource(tc.envSeed)), 2, 2, 64) //nolint:gosec // test
			cfg := DefaultConfig(tc.tech)
			cfg.Hidden, cfg.Horizon = 32, 128
			tc.edit(&cfg)
			agent, err := New(env.StateDim(), env.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			evalRng := rand.New(rand.NewSource(101)) //nolint:gosec // test
			before := rltest.EvalLoss(evalRng, env, agent, 200)
			if err := agent.Train(env, tc.steps); err != nil {
				t.Fatal(err)
			}
			if after := rltest.EvalLoss(evalRng, env, agent, 200); after >= before*tc.ratio {
				t.Errorf("%s did not learn: loss %v -> %v", tc.tech, before, after)
			}
		})
	}
}

func TestConjGradSolvesSPDSystem(t *testing.T) {
	// F = diag(2, 4), b = (2, 8) -> x = (1, 2).
	fvp := func(v []float64) []float64 {
		return []float64{2 * v[0], 4 * v[1]}
	}
	x := conjGrad(fvp, []float64{2, 8}, 25)
	if diff := math.Abs(x[0]-1) + math.Abs(x[1]-2); diff > 1e-6 {
		t.Errorf("CG solution %v, want [1 2]", x)
	}
}

func TestKLTrustRegionRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(51)) //nolint:gosec // test
	env := rltest.NewTargetEnv(rng, 2, 2, 32)
	cfg := DefaultConfig(TRPO)
	cfg.Hidden = 16
	cfg.Horizon = 64
	cfg.FisherSamples = 16
	agent, err := New(env.StateDim(), env.ActionDim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One update; verify the policy didn't jump beyond ~1.5x the KL radius
	// by re-measuring KL from a snapshot.
	states, actions, _, _ := rollout(agent.rng, env, agent.policy, 64)
	oldMeans := make([][]float64, len(states))
	for i, s := range states {
		oldMeans[i] = agent.policy.mean.Forward1(s)
	}
	oldLogStd := append([]float64(nil), agent.policy.logStd...)

	adv := make([]float64, len(states))
	for i := range adv {
		adv[i] = rng.NormFloat64()
	}
	agent.naturalStep(states, actions, adv)
	kl := agent.policy.klMeanDiff(states, oldMeans, oldLogStd)
	if kl > cfg.MaxKL*1.5+1e-9 {
		t.Errorf("KL after step %v exceeds trust region %v", kl, cfg.MaxKL*1.5)
	}
}
