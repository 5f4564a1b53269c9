package rl

import (
	"math/rand"

	"edgeslice/internal/nn"
)

// NewValueNet builds a state-value network V(s) with the standard two
// hidden-layer architecture used across the on-policy trainers.
func NewValueNet(rng *rand.Rand, stateDim, hidden int) *nn.Network {
	return nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 1, Act: nn.ActIdentity},
	)
}

// FitValue regresses net onto (states, targets) with mean-squared error for
// the given number of epochs of full-batch Adam steps. The gradient matrix
// is allocated once and reused across epochs.
func FitValue(net *nn.Network, opt nn.Optimizer, states [][]float64, targets []float64, epochs int) {
	if len(states) == 0 {
		return
	}
	batch := nn.FromRows(states)
	n := float64(len(states))
	grad := nn.NewMatrix(len(states), 1)
	for e := 0; e < epochs; e++ {
		out := net.Forward(batch)
		for i := range targets {
			grad.Set(i, 0, (out.At(i, 0)-targets[i])/n)
		}
		net.ZeroGrad()
		net.BackwardParams(grad)
		opt.Step(net)
	}
}

// ValueBatch evaluates V(s) for a batch of states.
func ValueBatch(net *nn.Network, states [][]float64) []float64 {
	if len(states) == 0 {
		return nil
	}
	out := net.Forward(nn.FromRows(states))
	vals := make([]float64, len(states))
	for i := range vals {
		vals[i] = out.At(i, 0)
	}
	return vals
}

// Rollout collects horizon steps of on-policy experience from env using the
// sampling policy. It returns parallel slices of states, actions and
// rewards plus the final state reached (for bootstrapping).
func Rollout(rng *rand.Rand, env Env, policy *GaussianPolicy, horizon int) (states, actions [][]float64, rewards []float64, final []float64) {
	states = make([][]float64, 0, horizon)
	actions = make([][]float64, 0, horizon)
	rewards = make([]float64, 0, horizon)
	s := env.Reset()
	for i := 0; i < horizon; i++ {
		a := policy.Sample(rng, s)
		next, r, done := env.Step(a)
		states = append(states, s)
		actions = append(actions, a)
		rewards = append(rewards, r)
		if done {
			next = env.Reset()
		}
		s = next
	}
	return states, actions, rewards, s
}
