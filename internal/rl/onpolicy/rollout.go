package onpolicy

import (
	"math"
	"math/rand/v2"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// rollout collects horizon steps of on-policy experience from env using the
// sampling policy. It returns parallel slices of states, actions and
// rewards plus the final state reached (for bootstrapping), which is env's.
// The states are copied into one block: an env's stay valid one call only.
func rollout(rng *rand.Rand, env rl.Env, policy *gaussianPolicy, horizon int) (states, actions [][]float64, rewards []float64, final []float64) {
	sd := env.StateDim()
	block := make([]float64, horizon*sd)
	states = make([][]float64, 0, horizon)
	actions = make([][]float64, 0, horizon)
	rewards = make([]float64, 0, horizon)
	s := env.Reset()
	for i := 0; i < horizon; i++ {
		a := policy.sample(rng, s)
		states = append(states, block[i*sd:(i+1)*sd:(i+1)*sd])
		copy(states[i], s)
		next, r, done := env.Step(a)
		actions = append(actions, a)
		rewards = append(rewards, r)
		if done {
			next = env.Reset()
		}
		s = next
	}
	return states, actions, rewards, s
}

// newValueNet builds a state-value network V(s) with the policy's two
// hidden-layer architecture.
func newValueNet(rng nn.Uniform, stateDim, hidden int) *nn.Network {
	return nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 1, Act: nn.ActIdentity},
	)
}

// fitValue regresses net onto (states, targets) with mean-squared error for
// the given number of epochs of full-batch Adam steps. The gradient matrix
// is allocated once and reused across epochs.
func fitValue(net *nn.Network, opt nn.Optimizer, states [][]float64, targets []float64, epochs int) {
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

// valueBatch evaluates V(s) for a batch of states.
func valueBatch(net *nn.Network, states [][]float64) []float64 {
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

// discountedReturns computes reward-to-go G_t = Σ_{k>=t} γ^{k-t} r_k for a
// single trajectory. The terminal value bootstraps the tail (0 for a true
// episode end).
func discountedReturns(rewards []float64, gamma, terminalValue float64) []float64 {
	out := make([]float64, len(rewards))
	run := terminalValue
	for t := len(rewards) - 1; t >= 0; t-- {
		run = rewards[t] + gamma*run
		out[t] = run
	}
	return out
}

// gae computes generalized advantage estimates (Schulman et al., 2016) for
// one trajectory given per-step rewards and value estimates. values must
// have len(rewards)+1 entries: V(s_0..s_T) with the final entry the
// bootstrap value of the state after the last reward.
func gae(rewards, values []float64, gamma, lambda float64) []float64 {
	if len(values) != len(rewards)+1 {
		panic("onpolicy: gae needs len(values) == len(rewards)+1")
	}
	adv := make([]float64, len(rewards))
	var run float64
	for t := len(rewards) - 1; t >= 0; t-- {
		delta := rewards[t] + gamma*values[t+1] - values[t]
		run = delta + gamma*lambda*run
		adv[t] = run
	}
	return adv
}

// normalize rescales xs in place to zero mean and unit variance; it is a
// no-op for fewer than two samples or zero variance.
func normalize(xs []float64) {
	if len(xs) < 2 {
		return
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varsum float64
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	variance := varsum / float64(len(xs))
	if variance <= 0 {
		return
	}
	std := math.Sqrt(variance)
	for i := range xs {
		xs[i] = (xs[i] - mean) / std
	}
}
