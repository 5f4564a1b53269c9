// Package trpo implements Trust Region Policy Optimization (Schulman et
// al., 2015), one of the comparison training techniques in Fig. 10(b): a
// natural-gradient policy step computed with conjugate gradients on an
// empirical Fisher information matrix, followed by a backtracking line
// search that enforces the KL trust region.
package trpo

import (
	"fmt"
	"math"
	"math/rand"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Config holds TRPO hyper-parameters.
type Config struct {
	Hidden        int
	ValueLR       float64
	Gamma         float64
	Lambda        float64
	MaxKL         float64 // trust-region radius δ
	CGIters       int
	CGDamping     float64
	FisherSamples int // subsample size for empirical Fisher
	LineSearchMax int
	Horizon       int
	ValueEpochs   int
	InitStd       float64
	Seed          int64
}

// DefaultConfig returns standard TRPO defaults with the paper's network
// sizes.
func DefaultConfig() Config {
	return Config{
		Hidden:        128,
		ValueLR:       1e-3,
		Gamma:         0.99,
		Lambda:        0.95,
		MaxKL:         0.01,
		CGIters:       10,
		CGDamping:     0.1,
		FisherSamples: 64,
		LineSearchMax: 10,
		Horizon:       256,
		ValueEpochs:   20,
		InitStd:       0.5,
		Seed:          1,
	}
}

// Agent is a TRPO learner.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: the Gaussian policy mean

	cfg    Config
	rng    *rand.Rand
	src    *mathutil.CountingSource // rng's backing source; checkpointed as a cursor
	policy *rl.GaussianPolicy
	value  *nn.Network
	vopt   *nn.Adam
}

var _ rl.Agent = (*Agent)(nil)

// New creates a TRPO agent.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if stateDim <= 0 || actionDim <= 0 || cfg.Hidden <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("trpo: invalid config state=%d action=%d %+v", stateDim, actionDim, cfg)
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
		vopt:           nn.NewAdam(cfg.ValueLR),
	}, nil
}

// Train runs approximately `steps` environment steps of TRPO.
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

		a.policyStep(states, actions, adv)
		rl.FitValue(a.value, a.vopt, states, returns, a.cfg.ValueEpochs)
	}
	return nil
}

// policyStep computes the natural-gradient update with a KL line search.
func (a *Agent) policyStep(states, actions [][]float64, adv []float64) {
	n := len(states)
	if n == 0 {
		return
	}
	// Surrogate gradient g = ∇ E[A·logπ] (loss sign handled below).
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = adv[i] / float64(n)
	}
	a.policy.ZeroGrad()
	a.policy.AccumulateScoreGrad(states, actions, coef)
	g := a.policy.FlattenGrads()
	negate(g) // AccumulateScoreGrad produces a minimization gradient

	scores := a.sampleScores(states, actions)
	fvpBuf := make([]float64, len(g)) // reused across every CG iteration
	fvp := func(v []float64) []float64 {
		out := fvpBuf
		for k := range out {
			out[k] = 0
		}
		for _, s := range scores {
			d := dot(s, v) / float64(len(scores))
			for k := range out {
				out[k] += d * s[k]
			}
		}
		for k := range out {
			out[k] += a.cfg.CGDamping * v[k]
		}
		return out
	}

	dir := conjGrad(fvp, g, a.cfg.CGIters)
	shs := dot(dir, fvp(dir))
	if shs <= 0 || math.IsNaN(shs) {
		return
	}
	stepScale := math.Sqrt(2 * a.cfg.MaxKL / shs)

	oldParams := a.policy.FlattenParams()
	oldMeans := make([][]float64, n)
	batchMeans := a.policy.Mean.Forward(nn.FromRows(states))
	for i := range oldMeans {
		oldMeans[i] = append([]float64(nil), batchMeans.Row(i)...)
	}
	oldLogStd := append([]float64(nil), a.policy.LogStd...)
	oldSurr := a.surrogate(states, actions, adv, nil)

	frac := 1.0
	candidate := make([]float64, len(oldParams)) // reused across backtracks
	for ls := 0; ls < a.cfg.LineSearchMax; ls++ {
		for k := range candidate {
			candidate[k] = oldParams[k] + frac*stepScale*dir[k]
		}
		if err := a.policy.SetFlatParams(candidate); err != nil {
			return
		}
		kl := a.policy.KLMeanDiff(states, oldMeans, oldLogStd)
		surr := a.surrogate(states, actions, adv, nil)
		if kl <= a.cfg.MaxKL*1.5 && surr > oldSurr {
			return // accepted
		}
		frac *= 0.5
	}
	// Line search failed: restore the old policy.
	if err := a.policy.SetFlatParams(oldParams); err != nil {
		panic(fmt.Sprintf("trpo: restoring params: %v", err))
	}
}

// surrogate evaluates E[A · logπ(a|s)] under the current policy.
func (a *Agent) surrogate(states, actions [][]float64, adv, _ []float64) float64 {
	lp := a.policy.LogProbBatch(states, actions)
	var s float64
	for i := range lp {
		s += adv[i] * lp[i]
	}
	return s / float64(len(lp))
}

// sampleScores returns per-sample score vectors ∇θ logπ(a|s) for a random
// subsample, used to build the empirical Fisher matrix.
func (a *Agent) sampleScores(states, actions [][]float64) [][]float64 {
	n := len(states)
	m := a.cfg.FisherSamples
	if m > n {
		m = n
	}
	scores := make([][]float64, 0, m)
	for i := 0; i < m; i++ {
		j := a.rng.Intn(n)
		a.policy.ZeroGrad()
		a.policy.AccumulateScoreGrad(
			[][]float64{states[j]}, [][]float64{actions[j]}, []float64{-1}, // -1: score, not loss
		)
		scores = append(scores, a.policy.FlattenGrads())
	}
	a.policy.ZeroGrad()
	return scores
}

// conjGrad solves F·x = b approximately with the conjugate-gradient method.
func conjGrad(fvp func([]float64) []float64, b []float64, iters int) []float64 {
	x := make([]float64, len(b))
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	rr := dot(r, r)
	for i := 0; i < iters; i++ {
		if rr < 1e-10 {
			break
		}
		fp := fvp(p)
		alpha := rr / math.Max(dot(p, fp), 1e-12)
		for k := range x {
			x[k] += alpha * p[k]
			r[k] -= alpha * fp[k]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		for k := range p {
			p[k] = r[k] + beta*p[k]
		}
		rr = rrNew
	}
	return x
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func negate(v []float64) {
	for i := range v {
		v[i] = -v[i]
	}
}

// Policy exposes the underlying Gaussian policy (for tests).
func (a *Agent) Policy() *rl.GaussianPolicy { return a.policy }
