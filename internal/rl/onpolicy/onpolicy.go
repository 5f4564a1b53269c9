// Package onpolicy implements the three on-policy comparison training
// techniques of Fig. 10(b) over one Gaussian policy, value net, rollout and
// checkpoint path. They differ only in the advantage estimate and the
// policy step:
//
//   - VPG, vanilla policy gradient (REINFORCE with a learned value
//     baseline; Sutton et al., 2000): discounted returns minus the
//     baseline, then one score-gradient Adam step;
//   - PPO, Proximal Policy Optimization (Schulman et al., 2017): GAE, then
//     clipped-surrogate minibatch epochs;
//   - TRPO, Trust Region Policy Optimization (Schulman et al., 2015): GAE,
//     then a natural-gradient step computed with conjugate gradients on an
//     empirical Fisher matrix, with a backtracking line search that
//     enforces the KL trust region.
package onpolicy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// The techniques, named as their checkpoints are.
const (
	VPG  = "vpg"
	PPO  = "ppo"
	TRPO = "trpo"
)

var techniques = []string{VPG, PPO, TRPO}

// Config holds the hyper-parameters of all three techniques; each reads
// only its own (see DefaultConfig).
type Config struct {
	// Technique is VPG, PPO or TRPO. A checkpoint records it as its
	// algorithm name, not in its config.
	Technique string `json:"-"`

	Hidden      int
	PolicyLR    float64 // VPG and PPO: Adam rate of the mean, plain rate of the log-stds
	ValueLR     float64
	Gamma       float64
	Lambda      float64 // PPO and TRPO: GAE lambda
	Horizon     int     // steps collected per policy update
	ValueEpochs int
	InitStd     float64
	Seed        int64

	// PPO.
	Clip        float64 // clipping epsilon
	Epochs      int     // optimization epochs per batch
	MinibatchSz int

	// TRPO.
	MaxKL         float64 // trust-region radius δ
	CGIters       int
	CGDamping     float64
	FisherSamples int // subsample size for empirical Fisher
	LineSearchMax int
}

// DefaultConfig returns a technique's standard defaults with the paper's
// network sizes.
func DefaultConfig(technique string) Config {
	cfg := Config{Technique: technique, Hidden: 128, ValueLR: 1e-3, Gamma: 0.99,
		Horizon: 256, ValueEpochs: 20, InitStd: 0.5, Seed: 1}
	switch technique {
	case VPG:
		cfg.PolicyLR = 1e-3
	case PPO:
		cfg.PolicyLR, cfg.Lambda, cfg.Clip, cfg.Epochs, cfg.MinibatchSz = 3e-4, 0.95, 0.2, 8, 64
	case TRPO:
		cfg.Lambda, cfg.MaxKL, cfg.CGIters, cfg.CGDamping, cfg.FisherSamples, cfg.LineSearchMax = 0.95, 0.01, 10, 0.1, 64, 10
	}
	return cfg
}

// check reports whether an agent of these dimensions can train under cfg;
// New and Restore both apply it.
func (cfg Config) check(stateDim, actionDim int) error {
	if !slices.Contains(techniques, cfg.Technique) {
		return fmt.Errorf("onpolicy: unknown technique %q", cfg.Technique)
	}
	if stateDim <= 0 || actionDim <= 0 {
		return fmt.Errorf("%s: invalid dimensions state=%d action=%d", cfg.Technique, stateDim, actionDim)
	}
	if cfg.Hidden <= 0 || cfg.Horizon <= 0 || cfg.Technique == PPO && cfg.MinibatchSz <= 0 {
		return fmt.Errorf("%s: invalid config %+v", cfg.Technique, cfg)
	}
	return nil
}

// Agent is a VPG, PPO or TRPO learner.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: the Gaussian policy mean

	cfg    Config
	pcg    rand.PCG   // the agent's one generator; its state is the checkpoint's
	rng    *rand.Rand // draws from pcg
	policy *gaussianPolicy
	value  *nn.Network
	popt   *nn.Adam // nil for TRPO, whose natural step keeps no moments
	vopt   *nn.Adam
}

var _ rl.Agent = (*Agent)(nil)

// New creates an agent of cfg.Technique.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if err := cfg.check(stateDim, actionDim); err != nil {
		return nil, err
	}
	pcg := rl.TrainerPCG(cfg.Seed)
	rng := rand.New(&pcg)
	policy := newGaussianPolicy(rng, stateDim, actionDim, cfg.Hidden, cfg.InitStd)
	a := newAgent(cfg, policy, newValueNet(rng, stateDim, cfg.Hidden))
	a.pcg = pcg
	return a, nil
}

// newAgent assembles an agent around its networks, with fresh optimizers
// and an unseeded generator.
func newAgent(cfg Config, policy *gaussianPolicy, value *nn.Network) *Agent {
	a := &Agent{
		DeployedPolicy: rl.NewDeployedPolicy(policy.mean, false),
		cfg:            cfg,
		policy:         policy,
		value:          value,
		vopt:           nn.NewAdam(cfg.ValueLR),
	}
	a.rng = rand.New(&a.pcg)
	if cfg.Technique != TRPO {
		a.popt = nn.NewAdam(cfg.PolicyLR)
	}
	return a
}

// Train runs approximately `steps` environment steps, performing one policy
// update and one value fit per collected horizon.
func (a *Agent) Train(env rl.Env, steps int) error {
	for it := max(steps/a.cfg.Horizon, 1); it > 0; it-- {
		states, actions, rewards, final := rollout(a.rng, env, a.policy, a.cfg.Horizon)
		// V(s_0..s_T), with V(final) last: the slicing task is continuing,
		// not episodic, so the tail bootstraps from it.
		values := valueBatch(a.value, append(states, final))
		var adv, returns []float64
		if a.cfg.Technique == VPG {
			returns = discountedReturns(rewards, a.cfg.Gamma, values[len(states)])
			adv = make([]float64, len(returns))
			for i := range adv {
				adv[i] = returns[i] - values[i]
			}
		} else {
			adv = gae(rewards, values, a.cfg.Gamma, a.cfg.Lambda)
			returns = make([]float64, len(adv))
			for i := range returns {
				returns[i] = adv[i] + values[i]
			}
		}
		normalize(adv)

		switch a.cfg.Technique {
		case VPG:
			for i := range adv {
				adv[i] /= float64(len(adv))
			}
			a.adamStep(states, actions, adv)
		case PPO:
			a.clippedEpochs(states, actions, adv)
		case TRPO:
			a.naturalStep(states, actions, adv)
		}
		fitValue(a.value, a.vopt, states, returns, a.cfg.ValueEpochs)
	}
	return nil
}

// adamStep descends L = −Σ coef·logπ by one clipped Adam step of the mean
// and one plain step of the log-stds.
func (a *Agent) adamStep(states, actions [][]float64, coef []float64) {
	a.policy.zeroGrad()
	a.policy.accumulateScoreGrad(states, actions, coef)
	nn.ClipGrads(a.policy.mean, 5)
	a.popt.Step(a.policy.mean)
	a.policy.stepLogStd(a.cfg.PolicyLR)
}

// clippedEpochs runs PPO's Epochs passes over the rollout in shuffled
// minibatches, each one Adam step on the clipped surrogate
// L = E[min(r·A, clip(r, 1±ε)·A)], whose gradient is r·A·∇logπ wherever
// the unclipped branch is active and 0 otherwise.
func (a *Agent) clippedEpochs(states, actions [][]float64, adv []float64) {
	oldLogP := a.policy.logProbBatch(states, actions)
	idx := make([]int, len(states))
	for i := range idx {
		idx[i] = i
	}
	mbSize := min(a.cfg.MinibatchSz, len(idx))
	mbStates, mbActions, coef := make([][]float64, mbSize), make([][]float64, mbSize), make([]float64, mbSize)
	for e := 0; e < a.cfg.Epochs; e++ {
		a.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += mbSize {
			mb := idx[start:min(start+mbSize, len(idx))]
			for i, j := range mb {
				mbStates[i], mbActions[i] = states[j], actions[j]
			}
			newLogP := a.policy.logProbBatch(mbStates[:len(mb)], mbActions[:len(mb)])
			for i, j := range mb {
				coef[i] = 0
				ratio := math.Exp(newLogP[i] - oldLogP[j])
				if !(adv[j] > 0 && ratio > 1+a.cfg.Clip) && !(adv[j] < 0 && ratio < 1-a.cfg.Clip) {
					coef[i] = ratio * adv[j] / float64(len(mb))
				}
			}
			a.adamStep(mbStates[:len(mb)], mbActions[:len(mb)], coef[:len(mb)])
		}
	}
}
