package onpolicy

import (
	"math"
	"math/rand/v2"
	"testing"

	"edgeslice/internal/nn"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(3, 0)) }

func TestFitValueRegresses(t *testing.T) {
	rng := newRNG()
	net := newValueNet(rng, 2, 16)
	opt := nn.NewAdam(0.01)
	// Targets: V(s) = 3*s0 - s1.
	var states [][]float64
	var targets []float64
	for i := 0; i < 64; i++ {
		s := []float64{rng.Float64(), rng.Float64()}
		states = append(states, s)
		targets = append(targets, 3*s[0]-s[1])
	}
	fitValue(net, opt, states, targets, 400)
	vals := valueBatch(net, states)
	var mse float64
	for i := range vals {
		d := vals[i] - targets[i]
		mse += d * d
	}
	mse /= float64(len(vals))
	if mse > 0.05 {
		t.Errorf("fitValue MSE %v too high", mse)
	}
}

func TestFitValueEmptyNoop(t *testing.T) {
	rng := newRNG()
	net := newValueNet(rng, 2, 4)
	before := net.FlattenParams()
	fitValue(net, nn.NewAdam(0.01), nil, nil, 10)
	after := net.FlattenParams()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("fitValue on empty data should not touch parameters")
		}
	}
	if valueBatch(net, nil) != nil {
		t.Error("valueBatch of empty states should be nil")
	}
}

type countingEnv struct {
	steps int
	sdim  int
	adim  int
}

func (e *countingEnv) Reset() []float64 { return make([]float64, e.sdim) }
func (e *countingEnv) Step(a []float64) ([]float64, float64, bool) {
	e.steps++
	return make([]float64, e.sdim), -1, e.steps%7 == 0
}
func (e *countingEnv) StateDim() int  { return e.sdim }
func (e *countingEnv) ActionDim() int { return e.adim }

func TestRolloutShapes(t *testing.T) {
	rng := newRNG()
	env := &countingEnv{sdim: 3, adim: 2}
	policy := newGaussianPolicy(rng, 3, 2, 8, 0.3)
	states, actions, rewards, final := rollout(rng, env, policy, 20)
	if len(states) != 20 || len(actions) != 20 || len(rewards) != 20 {
		t.Fatalf("rollout lengths %d/%d/%d, want 20", len(states), len(actions), len(rewards))
	}
	if len(final) != 3 {
		t.Errorf("final state dim %d, want 3", len(final))
	}
	for _, a := range actions {
		for _, v := range a {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("rollout action %v out of bounds", v)
			}
		}
	}
	if env.steps != 20 {
		t.Errorf("env stepped %d times, want 20", env.steps)
	}
}

func TestDiscountedReturns(t *testing.T) {
	r := []float64{1, 1, 1}
	got := discountedReturns(r, 0.5, 0)
	want := []float64{1.75, 1.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("G[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Terminal bootstrap propagates.
	got = discountedReturns([]float64{0}, 0.9, 10)
	if math.Abs(got[0]-9) > 1e-12 {
		t.Errorf("bootstrapped return = %v, want 9", got[0])
	}
}

func TestGAEReducesToTDWhenLambdaZero(t *testing.T) {
	rewards := []float64{1, 2, 3}
	values := []float64{0.5, 1.0, 1.5, 2.0}
	adv := gae(rewards, values, 0.9, 0)
	for i := range rewards {
		td := rewards[i] + 0.9*values[i+1] - values[i]
		if math.Abs(adv[i]-td) > 1e-12 {
			t.Errorf("adv[%d] = %v, want TD %v", i, adv[i], td)
		}
	}
}

func TestGAEEqualsReturnsMinusValueWhenLambdaOne(t *testing.T) {
	rewards := []float64{1, -2, 0.5, 3}
	values := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	gamma := 0.95
	adv := gae(rewards, values, gamma, 1)
	returns := discountedReturns(rewards, gamma, values[len(values)-1])
	for i := range rewards {
		want := returns[i] - values[i]
		if math.Abs(adv[i]-want) > 1e-9 {
			t.Errorf("adv[%d] = %v, want %v", i, adv[i], want)
		}
	}
}

func TestGAEPanicsOnBadLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("gae with mismatched lengths should panic")
		}
	}()
	gae([]float64{1}, []float64{1}, 0.9, 0.9)
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	normalize(xs)
	var mean, varsum float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	if math.Abs(mean) > 1e-9 || math.Abs(varsum/float64(len(xs))-1) > 1e-9 {
		t.Errorf("normalize: mean %v var %v", mean, varsum/float64(len(xs)))
	}
	// Degenerate cases must not produce NaNs.
	same := []float64{2, 2, 2}
	normalize(same)
	for _, x := range same {
		if math.IsNaN(x) {
			t.Error("normalize produced NaN on constant input")
		}
	}
	single := []float64{7}
	normalize(single)
	if single[0] != 7 {
		t.Error("normalize of single sample should be a no-op")
	}
}

// The score gradient accumulated by accumulateScoreGrad must match the
// finite-difference gradient of L = -Σ coef·logπ.
func TestScoreGradFiniteDifference(t *testing.T) {
	rng := newRNG()
	p := newGaussianPolicy(rng, 2, 2, 8, 0.5)
	states := [][]float64{{0.3, -0.7}, {0.9, 0.2}}
	actions := [][]float64{{0.4, 0.6}, {0.1, 0.9}}
	coef := []float64{1.5, -0.8}

	loss := func() float64 {
		var l float64
		for i, lp := range p.logProbBatch(states, actions) {
			l -= coef[i] * lp
		}
		return l
	}

	p.zeroGrad()
	p.accumulateScoreGrad(states, actions, coef)

	const h = 1e-6
	// Check a sample of mean-network weights.
	layer := p.mean.Layers[0]
	for k := 0; k < len(layer.W.Data); k += 5 {
		orig := layer.W.Data[k]
		layer.W.Data[k] = orig + h
		lp := loss()
		layer.W.Data[k] = orig - h
		lm := loss()
		layer.W.Data[k] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-layer.GradW.Data[k]) > 1e-4 {
			t.Fatalf("W[%d]: analytic %v numeric %v", k, layer.GradW.Data[k], numeric)
		}
	}
	// Check log-std gradients.
	for d := range p.logStd {
		orig := p.logStd[d]
		p.logStd[d] = orig + h
		lp := loss()
		p.logStd[d] = orig - h
		lm := loss()
		p.logStd[d] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-p.logStdGrad[d]) > 1e-4 {
			t.Fatalf("logstd[%d]: analytic %v numeric %v", d, p.logStdGrad[d], numeric)
		}
	}
}

func TestPolicyFlattenRoundTrip(t *testing.T) {
	rng := newRNG()
	p := newGaussianPolicy(rng, 3, 2, 8, 0.4)
	flat := p.flattenParams()
	for i := range flat {
		flat[i] *= 1.1
	}
	if err := p.setFlatParams(flat); err != nil {
		t.Fatal(err)
	}
	got := p.flattenParams()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("param %d mismatch", i)
		}
	}
	if err := p.setFlatParams(flat[:3]); err == nil {
		t.Error("short flat vector should fail")
	}
}

func TestKLZeroAgainstSelf(t *testing.T) {
	rng := newRNG()
	p := newGaussianPolicy(rng, 2, 2, 8, 0.5)
	states := [][]float64{{0.1, 0.2}, {0.5, -0.5}}
	means := make([][]float64, len(states))
	for i, s := range states {
		means[i] = p.mean.Forward1(s)
	}
	kl := p.klMeanDiff(states, means, p.logStd)
	if math.Abs(kl) > 1e-9 {
		t.Errorf("KL against self = %v, want 0", kl)
	}
}

func TestSampleWithinBounds(t *testing.T) {
	rng := newRNG()
	p := newGaussianPolicy(rng, 2, 3, 8, 1.0)
	for i := 0; i < 500; i++ {
		a := p.sample(rng, []float64{rng.Float64(), rng.Float64()})
		for _, v := range a {
			if v < 0 || v > 1 {
				t.Fatalf("sampled action %v out of [0,1]", v)
			}
		}
	}
}
