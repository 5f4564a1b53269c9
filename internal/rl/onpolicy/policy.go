package onpolicy

import (
	"fmt"
	"math"
	"math/rand/v2"

	"edgeslice/internal/nn"
)

// gaussianPolicy is a diagonal-Gaussian stochastic policy: the mean is a
// neural network with a sigmoid head (actions live in [0,1] as in the
// paper) and the per-dimension log standard deviations are free learnable
// parameters.
type gaussianPolicy struct {
	mean       *nn.Network
	logStd     []float64
	logStdGrad []float64

	// ws holds batch scratch (input matrices, score gradients) reused
	// across calls; every method resets it on entry, so no returned value
	// may alias it.
	ws nn.Workspace
}

// newGaussianPolicy builds a policy for the given state/action sizes with
// the paper's 2×hidden LeakyReLU architecture and initial std of initStd.
func newGaussianPolicy(rng nn.Uniform, stateDim, actionDim, hidden int, initStd float64) *gaussianPolicy {
	mean := nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: actionDim, Act: nn.ActSigmoid},
	)
	logStd := make([]float64, actionDim)
	for i := range logStd {
		logStd[i] = math.Log(initStd)
	}
	return &gaussianPolicy{mean: mean, logStd: logStd, logStdGrad: make([]float64, actionDim)}
}

// sample draws an action a = µ(s) + σ·ε, clamped to [0,1].
func (p *gaussianPolicy) sample(rng *rand.Rand, state []float64) []float64 {
	mean := p.mean.Forward1(state)
	for i := range mean {
		mean[i] = min(max(mean[i]+math.Exp(p.logStd[i])*rng.NormFloat64(), 0), 1)
	}
	return mean
}

// logProbBatch computes log-probabilities for a batch in one forward pass.
// The returned slice is freshly allocated (PPO keeps the old log-probs
// across epochs); only the input matrix is drawn from the scratch arena.
func (p *gaussianPolicy) logProbBatch(states, actions [][]float64) []float64 {
	if len(states) != len(actions) {
		panic(fmt.Sprintf("onpolicy: logProbBatch length mismatch %d vs %d", len(states), len(actions)))
	}
	p.ws.Reset()
	means := p.mean.Forward(p.ws.FromRows(states))
	out := make([]float64, len(states))
	for i := range states {
		mean := means.Row(i)
		for d := range mean {
			std := math.Exp(p.logStd[d])
			z := (actions[i][d] - mean[d]) / std
			out[i] += -0.5*z*z - p.logStd[d] - 0.5*math.Log(2*math.Pi)
		}
	}
	return out
}

// accumulateScoreGrad accumulates the gradient of
//
//	L = −Σ_i coef_i · log π(a_i | s_i)
//
// into the mean network's gradients and logStdGrad. This single primitive
// expresses VPG (coef = advantage), PPO (coef = clipped-ratio × advantage),
// and TRPO surrogate gradients.
func (p *gaussianPolicy) accumulateScoreGrad(states, actions [][]float64, coef []float64) {
	if len(states) == 0 {
		return
	}
	if len(states) != len(actions) || len(states) != len(coef) {
		panic("onpolicy: accumulateScoreGrad length mismatch")
	}
	p.ws.Reset()
	means := p.mean.Forward(p.ws.FromRows(states))
	gradMean := p.ws.NextZeroed(means.Rows, means.Cols)
	for i := range states {
		mrow := means.Row(i)
		grow := gradMean.Row(i)
		for d := range mrow {
			std := math.Exp(p.logStd[d])
			z := (actions[i][d] - mrow[d]) / std
			// d logπ / d µ = (a-µ)/σ² ; loss is negative log-prob weighted.
			grow[d] = -coef[i] * z / std
			// d logπ / d logσ = z² − 1.
			p.logStdGrad[d] += -coef[i] * (z*z - 1)
		}
	}
	p.mean.BackwardParams(gradMean)
}

// zeroGrad clears both network and log-std gradients.
func (p *gaussianPolicy) zeroGrad() {
	p.mean.ZeroGrad()
	for i := range p.logStdGrad {
		p.logStdGrad[i] = 0
	}
}

// stepLogStd applies a plain gradient step to the log-std parameters and
// keeps them in a sane range to avoid collapse or explosion.
func (p *gaussianPolicy) stepLogStd(lr float64) {
	for i := range p.logStd {
		p.logStd[i] -= lr * p.logStdGrad[i]
		if p.logStd[i] < math.Log(1e-3) {
			p.logStd[i] = math.Log(1e-3)
		}
		if p.logStd[i] > math.Log(2.0) {
			p.logStd[i] = math.Log(2.0)
		}
	}
}

// klMeanDiff returns the mean KL divergence between the policy at oldMeans
// (with oldLogStd) and the current policy on the same states: TRPO's
// trust-region check.
func (p *gaussianPolicy) klMeanDiff(states [][]float64, oldMeans [][]float64, oldLogStd []float64) float64 {
	p.ws.Reset()
	means := p.mean.Forward(p.ws.FromRows(states))
	var kl float64
	for i := range states {
		row := means.Row(i)
		for d := range row {
			s1 := math.Exp(oldLogStd[d])
			s2 := math.Exp(p.logStd[d])
			mu := oldMeans[i][d] - row[d]
			kl += p.logStd[d] - oldLogStd[d] + (s1*s1+mu*mu)/(2*s2*s2) - 0.5
		}
	}
	return kl / float64(len(states))
}

// flattenParams returns mean-net parameters followed by log-std values.
func (p *gaussianPolicy) flattenParams() []float64 {
	return append(p.mean.FlattenParams(), p.logStd...)
}

// flattenGrads returns gradients in the order of flattenParams.
func (p *gaussianPolicy) flattenGrads() []float64 {
	return append(p.mean.FlattenGrads(), p.logStdGrad...)
}

// setFlatParams restores parameters from flattenParams order.
func (p *gaussianPolicy) setFlatParams(flat []float64) error {
	n := p.mean.NumParams()
	if len(flat) != n+len(p.logStd) {
		return fmt.Errorf("onpolicy: setFlatParams got %d values, want %d", len(flat), n+len(p.logStd))
	}
	if err := p.mean.SetFlatParams(flat[:n]); err != nil {
		return err
	}
	copy(p.logStd, flat[n:])
	return nil
}
