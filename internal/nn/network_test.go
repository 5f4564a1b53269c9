package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestRNG() *rand.Rand {
	return rand.New(rand.NewSource(42)) //nolint:gosec // test determinism
}

func TestActivationRoundTrip(t *testing.T) {
	for _, a := range []Activation{ActIdentity, ActLeakyReLU, ActSigmoid, ActTanh, ActReLU} {
		got, err := ParseActivation(a.String())
		if err != nil {
			t.Fatalf("ParseActivation(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("round trip %v -> %v", a, got)
		}
	}
	if _, err := ParseActivation("bogus"); err == nil {
		t.Error("ParseActivation(bogus) should fail")
	}
}

func TestSigmoidRange(t *testing.T) {
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		y := activate(ActSigmoid, z)
		return y >= 0 && y <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// activate is the forward pass's bias + activation (biasAct) on one
// pre-activation with a zero bias.
func activate(a Activation, z float64) float64 {
	y := NewMatrix(1, 1)
	a.biasAct(&Matrix{Rows: 1, Cols: 1, Data: []float64{z}}, y, []float64{0})
	return y.Data[0]
}

// The backward pass's derivative (mulDerivative with a unit gradient) must
// match a central finite difference of the forward activation.
func TestActivationDerivatives(t *testing.T) {
	const h = 1e-6
	for _, act := range []Activation{ActIdentity, ActLeakyReLU, ActSigmoid, ActTanh} {
		for _, z := range []float64{-2.5, -0.7, 0.3, 1.9} {
			analytic := []float64{0}
			act.mulDerivative(analytic, []float64{1}, []float64{z}, []float64{activate(act, z)})
			numeric := (activate(act, z+h) - activate(act, z-h)) / (2 * h)
			if math.Abs(analytic[0]-numeric) > 1e-4 {
				t.Errorf("%v'(%v): analytic %v vs numeric %v", act, z, analytic[0], numeric)
			}
		}
	}
}

// The backprop gradient of a scalar loss must match numerical gradients.
func TestDenseGradientCheck(t *testing.T) {
	rng := newTestRNG()
	net := NewMLP(rng, 3,
		LayerSpec{Out: 5, Act: ActTanh},
		LayerSpec{Out: 2, Act: ActSigmoid},
	)
	x := FromRows([][]float64{
		{0.5, -1.2, 0.3},
		{1.1, 0.4, -0.6},
	})
	target := FromRows([][]float64{{0.2, 0.8}, {0.9, 0.1}})

	// loss = 0.5 * sum((y - target)^2)
	loss := func() float64 {
		y := net.Forward(x)
		var l float64
		for i := range y.Data {
			d := y.Data[i] - target.Data[i]
			l += 0.5 * d * d
		}
		return l
	}

	// Analytic gradients.
	y := net.Forward(x)
	grad := NewMatrix(y.Rows, y.Cols)
	for i := range y.Data {
		grad.Data[i] = y.Data[i] - target.Data[i]
	}
	net.ZeroGrad()
	net.Backward(grad)

	const h = 1e-6
	for li, layer := range net.Layers {
		for k := 0; k < len(layer.W.Data); k += 3 { // sample every 3rd weight
			orig := layer.W.Data[k]
			layer.W.Data[k] = orig + h
			lp := loss()
			layer.W.Data[k] = orig - h
			lm := loss()
			layer.W.Data[k] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := layer.GradW.Data[k]
			if math.Abs(numeric-analytic) > 1e-4 {
				t.Fatalf("layer %d W[%d]: analytic %v vs numeric %v", li, k, analytic, numeric)
			}
		}
		for k := range layer.B {
			orig := layer.B[k]
			layer.B[k] = orig + h
			lp := loss()
			layer.B[k] = orig - h
			lm := loss()
			layer.B[k] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := layer.GradB[k]
			if math.Abs(numeric-analytic) > 1e-4 {
				t.Fatalf("layer %d B[%d]: analytic %v vs numeric %v", li, k, analytic, numeric)
			}
		}
	}
}

// The input gradient returned by Backward must also match finite differences
// (this path drives the DDPG actor update, Eq. 18).
func TestInputGradientCheck(t *testing.T) {
	rng := newTestRNG()
	net := NewMLP(rng, 4, LayerSpec{Out: 6, Act: ActLeakyReLU}, LayerSpec{Out: 1, Act: ActIdentity})
	xv := []float64{0.3, -0.8, 1.5, 0.1}

	scalar := func(v []float64) float64 { return net.Forward1(v)[0] }

	net.ZeroGrad()
	out := net.Forward(FromRows([][]float64{xv}))
	g := NewMatrix(out.Rows, out.Cols)
	g.Data[0] = 1
	dx := net.Backward(g)

	const h = 1e-6
	for i := range xv {
		p := append([]float64(nil), xv...)
		p[i] += h
		m := append([]float64(nil), xv...)
		m[i] -= h
		numeric := (scalar(p) - scalar(m)) / (2 * h)
		if math.Abs(numeric-dx.At(0, i)) > 1e-4 {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.At(0, i), numeric)
		}
	}
}

func TestAdamFitsToyRegression(t *testing.T) {
	rng := newTestRNG()
	net := NewMLP(rng, 1, LayerSpec{Out: 16, Act: ActTanh}, LayerSpec{Out: 1, Act: ActIdentity})
	opt := NewAdam(0.01)
	// Fit y = 2x - 1 on [-1, 1].
	var finalLoss float64
	for step := 0; step < 2000; step++ {
		xs := make([][]float64, 16)
		ys := make([]float64, 16)
		for i := range xs {
			x := rng.Float64()*2 - 1
			xs[i] = []float64{x}
			ys[i] = 2*x - 1
		}
		batch := FromRows(xs)
		out := net.Forward(batch)
		grad := NewMatrix(out.Rows, out.Cols)
		finalLoss = 0
		for i := range ys {
			d := out.At(i, 0) - ys[i]
			finalLoss += 0.5 * d * d / float64(len(ys))
			grad.Set(i, 0, d/float64(len(ys)))
		}
		net.ZeroGrad()
		net.Backward(grad)
		opt.Step(net)
	}
	if finalLoss > 0.01 {
		t.Errorf("Adam failed to fit linear function: final loss %v", finalLoss)
	}
}

func TestSoftUpdateConverges(t *testing.T) {
	rng := newTestRNG()
	a := NewMLP(rng, 2, LayerSpec{Out: 3, Act: ActTanh})
	b := a.Clone()
	for i := range b.Layers[0].W.Data {
		b.Layers[0].W.Data[i] = 0
	}
	for i := 0; i < 5000; i++ {
		b.SoftUpdate(a, 0.01)
	}
	for i := range a.Layers[0].W.Data {
		if math.Abs(a.Layers[0].W.Data[i]-b.Layers[0].W.Data[i]) > 1e-8 {
			t.Fatalf("soft update did not converge at weight %d", i)
		}
	}
}

func TestFlattenSetRoundTrip(t *testing.T) {
	rng := newTestRNG()
	net := NewMLP(rng, 2, LayerSpec{Out: 3, Act: ActTanh}, LayerSpec{Out: 1, Act: ActIdentity})
	flat := net.FlattenParams()
	clone := net.Clone()
	for i := range flat {
		flat[i] += 0.5
	}
	if err := clone.SetFlatParams(flat); err != nil {
		t.Fatalf("SetFlatParams: %v", err)
	}
	got := clone.FlattenParams()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("flat param %d: got %v want %v", i, got[i], flat[i])
		}
	}
	if err := clone.SetFlatParams(flat[:1]); err == nil {
		t.Error("SetFlatParams with wrong length should fail")
	}
}

func TestClipGrads(t *testing.T) {
	rng := newTestRNG()
	net := NewMLP(rng, 1, LayerSpec{Out: 2, Act: ActIdentity})
	for _, p := range net.Params() {
		for i := range p.Grad {
			p.Grad[i] = 10
		}
	}
	pre := ClipGrads(net, 1.0)
	if pre <= 1.0 {
		t.Fatalf("pre-clip norm %v should exceed 1", pre)
	}
	var sq float64
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	if math.Abs(math.Sqrt(sq)-1.0) > 1e-9 {
		t.Errorf("post-clip norm %v, want 1", math.Sqrt(sq))
	}
}
