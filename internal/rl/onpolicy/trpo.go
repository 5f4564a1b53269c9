package onpolicy

import (
	"fmt"
	"math"

	"edgeslice/internal/nn"
)

// naturalStep is TRPO's policy step: the natural-gradient direction, solved
// with conjugate gradients on an empirical Fisher matrix, then scaled to
// the KL radius and backtracked until the trust region holds and the
// surrogate improves.
func (a *Agent) naturalStep(states, actions [][]float64, adv []float64) {
	n := len(states)
	if n == 0 {
		return
	}
	// Surrogate gradient g = ∇ E[A·logπ] (loss sign handled below).
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = adv[i] / float64(n)
	}
	a.policy.zeroGrad()
	a.policy.accumulateScoreGrad(states, actions, coef)
	g := a.policy.flattenGrads()
	negate(g) // accumulateScoreGrad produces a minimization gradient

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

	oldParams := a.policy.flattenParams()
	oldMeans := make([][]float64, n)
	batchMeans := a.policy.mean.Forward(nn.FromRows(states))
	for i := range oldMeans {
		oldMeans[i] = append([]float64(nil), batchMeans.Row(i)...)
	}
	oldLogStd := append([]float64(nil), a.policy.logStd...)
	oldSurr := a.surrogate(states, actions, adv)

	frac := 1.0
	candidate := make([]float64, len(oldParams)) // reused across backtracks
	for ls := 0; ls < a.cfg.LineSearchMax; ls++ {
		for k := range candidate {
			candidate[k] = oldParams[k] + frac*stepScale*dir[k]
		}
		if err := a.policy.setFlatParams(candidate); err != nil {
			return
		}
		kl := a.policy.klMeanDiff(states, oldMeans, oldLogStd)
		surr := a.surrogate(states, actions, adv)
		if kl <= a.cfg.MaxKL*1.5 && surr > oldSurr {
			return // accepted
		}
		frac *= 0.5
	}
	// Line search failed: restore the old policy.
	if err := a.policy.setFlatParams(oldParams); err != nil {
		panic(fmt.Sprintf("trpo: restoring params: %v", err))
	}
}

// surrogate evaluates E[A · logπ(a|s)] under the current policy.
func (a *Agent) surrogate(states, actions [][]float64, adv []float64) float64 {
	lp := a.policy.logProbBatch(states, actions)
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
	m := min(a.cfg.FisherSamples, n)
	scores := make([][]float64, 0, m)
	for i := 0; i < m; i++ {
		j := a.rng.IntN(n)
		a.policy.zeroGrad()
		a.policy.accumulateScoreGrad(
			[][]float64{states[j]}, [][]float64{actions[j]}, []float64{-1}, // -1: score, not loss
		)
		scores = append(scores, a.policy.flattenGrads())
	}
	a.policy.zeroGrad()
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
