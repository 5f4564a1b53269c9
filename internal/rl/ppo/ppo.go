// Package ppo implements Proximal Policy Optimization with the clipped
// surrogate objective (Schulman et al., 2017), one of the comparison
// training techniques in Fig. 10(b).
package ppo

import (
	"fmt"
	"math"
	"math/rand"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Config holds PPO hyper-parameters.
type Config struct {
	Hidden      int
	PolicyLR    float64
	ValueLR     float64
	Gamma       float64
	Lambda      float64 // GAE lambda
	Clip        float64 // clipping epsilon
	Horizon     int
	Epochs      int // optimization epochs per batch
	MinibatchSz int
	ValueEpochs int
	InitStd     float64
	Seed        int64
}

// DefaultConfig returns standard PPO defaults with the paper's network
// sizes.
func DefaultConfig() Config {
	return Config{
		Hidden:      128,
		PolicyLR:    3e-4,
		ValueLR:     1e-3,
		Gamma:       0.99,
		Lambda:      0.95,
		Clip:        0.2,
		Horizon:     256,
		Epochs:      8,
		MinibatchSz: 64,
		ValueEpochs: 20,
		InitStd:     0.5,
		Seed:        1,
	}
}

// Agent is a PPO learner.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: the Gaussian policy mean

	cfg    Config
	rng    *rand.Rand
	src    *mathutil.CountingSource // rng's backing source; checkpointed as a cursor
	policy *rl.GaussianPolicy
	value  *nn.Network
	popt   *nn.Adam
	vopt   *nn.Adam

	// Minibatch scratch reused across update steps: the shuffled index
	// permutation and the gathered minibatch views/coefficients.
	idx       []int
	mbStates  [][]float64
	mbActions [][]float64
	coef      []float64
}

var _ rl.Agent = (*Agent)(nil)

// New creates a PPO agent.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if stateDim <= 0 || actionDim <= 0 || cfg.Hidden <= 0 || cfg.Horizon <= 0 || cfg.MinibatchSz <= 0 {
		return nil, fmt.Errorf("ppo: invalid config state=%d action=%d %+v", stateDim, actionDim, cfg)
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

// Train runs approximately `steps` environment steps of PPO.
func (a *Agent) Train(env rl.Env, steps int) error {
	iters := steps / a.cfg.Horizon
	if iters == 0 {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		states, actions, rewards, final := rl.Rollout(a.rng, env, a.policy, a.cfg.Horizon)

		values := rl.ValueBatch(a.value, states)
		finalV := rl.ValueBatch(a.value, [][]float64{final})[0]
		valuesExt := append(append([]float64(nil), values...), finalV)
		adv := rl.GAE(rewards, valuesExt, a.cfg.Gamma, a.cfg.Lambda)
		returns := make([]float64, len(adv))
		for i := range returns {
			returns[i] = adv[i] + values[i]
		}
		rl.Normalize(adv)

		oldLogP := a.policy.LogProbBatch(states, actions)

		if cap(a.idx) < len(states) {
			a.idx = make([]int, len(states))
		}
		idx := a.idx[:len(states)]
		for i := range idx {
			idx[i] = i
		}
		for e := 0; e < a.cfg.Epochs; e++ {
			a.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for start := 0; start < len(idx); start += a.cfg.MinibatchSz {
				end := start + a.cfg.MinibatchSz
				if end > len(idx) {
					end = len(idx)
				}
				mb := idx[start:end]
				a.updateMinibatch(states, actions, adv, oldLogP, mb)
			}
		}

		rl.FitValue(a.value, a.vopt, states, returns, a.cfg.ValueEpochs)
	}
	return nil
}

// updateMinibatch applies one clipped-surrogate gradient step on the
// minibatch indices mb. The gather buffers live on the agent and are
// reused across minibatches.
func (a *Agent) updateMinibatch(states, actions [][]float64, adv, oldLogP []float64, mb []int) {
	if cap(a.mbStates) < len(mb) {
		a.mbStates = make([][]float64, len(mb))
		a.mbActions = make([][]float64, len(mb))
		a.coef = make([]float64, len(mb))
	}
	mbStates := a.mbStates[:len(mb)]
	mbActions := a.mbActions[:len(mb)]
	for i, j := range mb {
		mbStates[i] = states[j]
		mbActions[i] = actions[j]
	}
	newLogP := a.policy.LogProbBatch(mbStates, mbActions)

	// The clipped surrogate L = E[min(r·A, clip(r, 1±ε)·A)] has gradient
	// r·A·∇logπ wherever the unclipped branch is active and 0 otherwise.
	coef := a.coef[:len(mb)]
	for i := range coef {
		coef[i] = 0
	}
	for i, j := range mb {
		ratio := math.Exp(newLogP[i] - oldLogP[j])
		active := !(adv[j] > 0 && ratio > 1+a.cfg.Clip) && !(adv[j] < 0 && ratio < 1-a.cfg.Clip)
		if active {
			coef[i] = ratio * adv[j] / float64(len(mb))
		}
	}
	a.policy.ZeroGrad()
	a.policy.AccumulateScoreGrad(mbStates, mbActions, coef)
	nn.ClipGrads(a.policy.Mean, 5)
	a.popt.Step(a.policy.Mean)
	a.policy.StepLogStd(a.cfg.PolicyLR)
}
