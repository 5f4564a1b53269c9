package rl

import (
	"fmt"
	"math"
	"math/rand"

	"edgeslice/internal/nn"
)

// GaussianPolicy is a diagonal-Gaussian stochastic policy used by the
// on-policy trainers (PPO, TRPO, VPG): the mean is produced by a neural
// network with a sigmoid head (actions live in [0,1] as in the paper) and
// the per-dimension log standard deviations are free learnable parameters.
type GaussianPolicy struct {
	Mean       *nn.Network
	LogStd     []float64
	LogStdGrad []float64

	// ws holds batch scratch (input matrices, score gradients) reused
	// across calls; every exported method resets it on entry, so no
	// returned value may alias it.
	ws nn.Workspace
}

// NewGaussianPolicy builds a policy for the given state/action sizes with
// the paper's 2×hidden LeakyReLU architecture and initial std of initStd.
func NewGaussianPolicy(rng *rand.Rand, stateDim, actionDim, hidden int, initStd float64) *GaussianPolicy {
	mean := nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: actionDim, Act: nn.ActSigmoid},
	)
	logStd := make([]float64, actionDim)
	for i := range logStd {
		logStd[i] = math.Log(initStd)
	}
	return &GaussianPolicy{
		Mean:       mean,
		LogStd:     logStd,
		LogStdGrad: make([]float64, actionDim),
	}
}

// RestoreGaussianPolicy rebuilds a policy from its serialized parts: the
// mean network and the per-dimension log standard deviations (both owned by
// the returned policy — callers restoring from a shared snapshot should
// pass clones).
func RestoreGaussianPolicy(mean *nn.Network, logStd []float64) (*GaussianPolicy, error) {
	if mean == nil || len(mean.Layers) == 0 {
		return nil, fmt.Errorf("rl: gaussian policy snapshot has no mean network")
	}
	if len(logStd) != mean.OutputDim() {
		return nil, fmt.Errorf("rl: gaussian policy snapshot has %d log-stds, mean outputs %d", len(logStd), mean.OutputDim())
	}
	return &GaussianPolicy{
		Mean:       mean,
		LogStd:     logStd,
		LogStdGrad: make([]float64, len(logStd)),
	}, nil
}

// ActionDim returns the number of action dimensions.
func (p *GaussianPolicy) ActionDim() int { return len(p.LogStd) }

// Sample draws an action a = µ(s) + σ·ε, clamped to [0,1].
func (p *GaussianPolicy) Sample(rng *rand.Rand, state []float64) []float64 {
	mean := p.Mean.Forward1(state)
	for i := range mean {
		mean[i] += math.Exp(p.LogStd[i]) * rng.NormFloat64()
		if mean[i] < 0 {
			mean[i] = 0
		}
		if mean[i] > 1 {
			mean[i] = 1
		}
	}
	return mean
}

// MeanAction returns the deterministic action µ(s).
func (p *GaussianPolicy) MeanAction(state []float64) []float64 {
	return p.Mean.Forward1(state)
}

// MeanActionWS is MeanAction routed through a caller-supplied workspace: the
// returned slice is workspace-backed (valid until ws is Reset and redrawn)
// and warm calls allocate nothing. Values are bit-identical to MeanAction.
//
//edgeslice:noalloc
func (p *GaussianPolicy) MeanActionWS(state []float64, ws *nn.Workspace) []float64 {
	return p.Mean.Forward1WS(state, ws)
}

// LogProb returns log π(a|s) under the (unclamped) Gaussian.
func (p *GaussianPolicy) LogProb(state, action []float64) float64 {
	mean := p.Mean.Forward1(state)
	return p.logProbGivenMean(mean, action)
}

func (p *GaussianPolicy) logProbGivenMean(mean, action []float64) float64 {
	var lp float64
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		z := (action[i] - mean[i]) / std
		lp += -0.5*z*z - p.LogStd[i] - 0.5*math.Log(2*math.Pi)
	}
	return lp
}

// LogProbBatch computes log-probabilities for a batch in one forward pass.
// The returned slice is freshly allocated (PPO keeps the old log-probs
// across epochs); only the input matrix is drawn from the scratch arena.
func (p *GaussianPolicy) LogProbBatch(states, actions [][]float64) []float64 {
	if len(states) != len(actions) {
		panic(fmt.Sprintf("rl: LogProbBatch length mismatch %d vs %d", len(states), len(actions)))
	}
	p.ws.Reset()
	means := p.Mean.Forward(p.ws.FromRows(states))
	out := make([]float64, len(states))
	for i := range states {
		out[i] = p.logProbGivenMean(means.Row(i), actions[i])
	}
	return out
}

// AccumulateScoreGrad accumulates the gradient of
//
//	L = −Σ_i coef_i · log π(a_i | s_i)
//
// into the mean network's gradients and LogStdGrad. This single primitive
// expresses VPG (coef = advantage), PPO (coef = clipped-ratio × advantage),
// and TRPO surrogate gradients.
func (p *GaussianPolicy) AccumulateScoreGrad(states, actions [][]float64, coef []float64) {
	if len(states) == 0 {
		return
	}
	if len(states) != len(actions) || len(states) != len(coef) {
		panic("rl: AccumulateScoreGrad length mismatch")
	}
	p.ws.Reset()
	batch := p.ws.FromRows(states)
	means := p.Mean.Forward(batch)
	gradMean := p.ws.NextZeroed(means.Rows, means.Cols)
	for i := range states {
		mrow := means.Row(i)
		grow := gradMean.Row(i)
		for d := range mrow {
			std := math.Exp(p.LogStd[d])
			z := (actions[i][d] - mrow[d]) / std
			// d logπ / d µ = (a-µ)/σ² ; loss is negative log-prob weighted.
			grow[d] = -coef[i] * z / std
			// d logπ / d logσ = z² − 1.
			p.LogStdGrad[d] += -coef[i] * (z*z - 1)
		}
	}
	p.Mean.BackwardParams(gradMean)
}

// ZeroGrad clears both network and log-std gradients.
func (p *GaussianPolicy) ZeroGrad() {
	p.Mean.ZeroGrad()
	for i := range p.LogStdGrad {
		p.LogStdGrad[i] = 0
	}
}

// StepLogStd applies a plain gradient step to the log-std parameters and
// keeps them in a sane range to avoid collapse or explosion.
func (p *GaussianPolicy) StepLogStd(lr float64) {
	for i := range p.LogStd {
		p.LogStd[i] -= lr * p.LogStdGrad[i]
		if p.LogStd[i] < math.Log(1e-3) {
			p.LogStd[i] = math.Log(1e-3)
		}
		if p.LogStd[i] > math.Log(2.0) {
			p.LogStd[i] = math.Log(2.0)
		}
	}
}

// KLMeanDiff returns the mean KL divergence between the policy at oldMeans
// (with oldLogStd) and the current policy on the same states. Used by TRPO's
// trust-region check.
func (p *GaussianPolicy) KLMeanDiff(states [][]float64, oldMeans [][]float64, oldLogStd []float64) float64 {
	p.ws.Reset()
	means := p.Mean.Forward(p.ws.FromRows(states))
	var kl float64
	for i := range states {
		row := means.Row(i)
		for d := range row {
			s1 := math.Exp(oldLogStd[d])
			s2 := math.Exp(p.LogStd[d])
			mu := oldMeans[i][d] - row[d]
			kl += p.LogStd[d] - oldLogStd[d] + (s1*s1+mu*mu)/(2*s2*s2) - 0.5
		}
	}
	return kl / float64(len(states))
}

// FlattenParams returns mean-net parameters followed by log-std values.
func (p *GaussianPolicy) FlattenParams() []float64 {
	out := p.Mean.FlattenParams()
	return append(out, p.LogStd...)
}

// FlattenGrads returns gradients in the order of FlattenParams.
func (p *GaussianPolicy) FlattenGrads() []float64 {
	out := p.Mean.FlattenGrads()
	return append(out, p.LogStdGrad...)
}

// SetFlatParams restores parameters from FlattenParams order.
func (p *GaussianPolicy) SetFlatParams(flat []float64) error {
	n := p.Mean.NumParams()
	if len(flat) != n+len(p.LogStd) {
		return fmt.Errorf("rl: SetFlatParams got %d values, want %d", len(flat), n+len(p.LogStd))
	}
	if err := p.Mean.SetFlatParams(flat[:n]); err != nil {
		return err
	}
	copy(p.LogStd, flat[n:])
	return nil
}
