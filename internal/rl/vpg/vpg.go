// Package vpg implements the vanilla policy gradient algorithm (REINFORCE
// with a learned value baseline; Sutton et al., 2000), one of the
// comparison training techniques in Fig. 10(b).
package vpg

import (
	"fmt"
	"math/rand"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Config holds VPG hyper-parameters.
type Config struct {
	Hidden      int
	PolicyLR    float64
	ValueLR     float64
	Gamma       float64
	Horizon     int // steps collected per policy update
	ValueEpochs int
	InitStd     float64
	Seed        int64
}

// DefaultConfig returns reasonable defaults aligned with the paper's
// network sizes.
func DefaultConfig() Config {
	return Config{
		Hidden:      128,
		PolicyLR:    1e-3,
		ValueLR:     1e-3,
		Gamma:       0.99,
		Horizon:     256,
		ValueEpochs: 20,
		InitStd:     0.5,
		Seed:        1,
	}
}

// Agent is a VPG learner.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: the Gaussian policy mean

	cfg    Config
	rng    *rand.Rand
	src    *mathutil.CountingSource // rng's backing source; checkpointed as a cursor
	policy *rl.GaussianPolicy
	value  *nn.Network
	popt   *nn.Adam
	vopt   *nn.Adam

	adv []float64 // advantage scratch reused across update iterations
}

var _ rl.Agent = (*Agent)(nil)

// New creates a VPG agent.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if stateDim <= 0 || actionDim <= 0 || cfg.Hidden <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("vpg: invalid config state=%d action=%d %+v", stateDim, actionDim, cfg)
	}
	rng, src := mathutil.NewCountingRNG(cfg.Seed)
	policy := rl.NewGaussianPolicy(rng, stateDim, actionDim, cfg.Hidden, cfg.InitStd)
	return &Agent{
		DeployedPolicy: rl.NewDeployedPolicy(policy.Mean, false),
		cfg:            cfg,
		rng:            rng,
		src:            src,
		policy:         policy,
		value:          rl.NewValueNet(rng, stateDim, cfg.Hidden),
		popt:           nn.NewAdam(cfg.PolicyLR),
		vopt:           nn.NewAdam(cfg.ValueLR),
	}, nil
}

// Train runs approximately `steps` environment steps, performing one policy
// update per collected horizon.
func (a *Agent) Train(env rl.Env, steps int) error {
	iters := steps / a.cfg.Horizon
	if iters == 0 {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		states, actions, rewards, final := rl.Rollout(a.rng, env, a.policy, a.cfg.Horizon)
		// Bootstrap the tail with V(final) since the slicing task is
		// continuing, not episodic.
		tail := rl.ValueBatch(a.value, [][]float64{final})[0]
		returns := rl.DiscountedReturns(rewards, a.cfg.Gamma, tail)
		baseline := rl.ValueBatch(a.value, states)
		if cap(a.adv) < len(returns) {
			a.adv = make([]float64, len(returns))
		}
		adv := a.adv[:len(returns)]
		for i := range adv {
			adv[i] = returns[i] - baseline[i]
		}
		rl.Normalize(adv)
		for i := range adv {
			adv[i] /= float64(len(adv))
		}

		a.policy.ZeroGrad()
		a.policy.AccumulateScoreGrad(states, actions, adv)
		nn.ClipGrads(a.policy.Mean, 5)
		a.popt.Step(a.policy.Mean)
		a.policy.StepLogStd(a.cfg.PolicyLR)

		rl.FitValue(a.value, a.vopt, states, returns, a.cfg.ValueEpochs)
	}
	return nil
}

// Policy exposes the underlying Gaussian policy (for tests).
func (a *Agent) Policy() *rl.GaussianPolicy { return a.policy }
