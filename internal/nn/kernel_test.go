package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// setUseAVX switches the matmul dispatch for the rest of the test. A host
// without AVX stays on the scalar loops whatever is asked.
func setUseAVX(t testing.TB, on bool) {
	host := useAVX
	t.Cleanup(func() { useAVX = host })
	useAVX = on && host
}

// Every other test in this package runs on the kernels the host detected,
// which on amd64 means the scalar loops — all that any other architecture
// has — would never run. This re-runs the matmul, workspace and
// gradient-check tests on them.
func TestScalarKernels(t *testing.T) {
	if !useAVX {
		t.Skip("the host already runs the scalar loops")
	}
	setUseAVX(t, false)
	for _, tc := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"MatMulNT", TestMatMulNT},
		{"MatMulNN", TestMatMulNN},
		{"MatMulTN", TestMatMulTN},
		{"MatMulEquivalenceProperty", TestMatMulEquivalenceProperty},
		{"MatMulIntoMatchesAllocating", TestMatMulIntoMatchesAllocating},
		{"MatMulIntoShapeChecks", TestMatMulIntoShapeChecks},
		{"DenseForwardCopiesInput", TestDenseForwardCopiesInput},
		{"DenseBatchSizeChanges", TestDenseBatchSizeChanges},
		{"NetworkStepAllocFree", TestNetworkStepAllocFree},
		{"DenseGradientCheck", TestDenseGradientCheck},
		{"InputGradientCheck", TestInputGradientCheck},
		{"AdamFitsToyRegression", TestAdamFitsToyRegression},
		{"ForwardBatchMatchesForward1", TestForwardBatchMatchesForward1},
		{"BackwardInputMatchesBackward", TestBackwardInputMatchesBackward},
	} {
		t.Run(tc.name, tc.f)
	}
}

// edgeValues are the inputs a vector kernel is most likely to treat
// differently from scalar code: both zeros (the zero-skip tests a == 0, so
// -0 skips too), denormals, infinities (0·Inf must be skipped, not added)
// and NaN (compares unordered, so it must not skip).
var edgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

// edgeMat fills a rows×cols matrix with normal draws, about one element in
// five replaced by an edge value.
func edgeMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			m.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return m
}

// bitsEqual compares element bit patterns. Any NaN matches any NaN: which
// operand's payload x86 propagates depends on operand position, and that is
// the compiler's choice in the scalar loops.
func bitsEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), scalar %v (%#x)", label,
				i/want.Cols, i%want.Cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// Each AVX path must reproduce the scalar loops bit for bit, for every
// shape — all row, inner and column tails — and for edge-value inputs,
// including a non-zero c under the accumulating forms.
func TestKernelsBitIdenticalToScalar(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernels on this host")
	}
	setUseAVX(t, true) // registers the restore of the dispatch the loop below flips

	rng := rand.New(rand.NewSource(15)) //nolint:gosec // test determinism
	// r, p, q: NT is (r×p)·(q×p)ᵀ, NN is (r×p)·(p×q), TN is (r×p)ᵀ·(r×q).
	shapes := [][3]int{
		{64, 32, 32}, {64, 32, 10}, {64, 1, 32}, {1, 32, 33}, {512, 128, 128},
		{9, 5, 48}, {7, 3, 64}, {5, 70, 130}, {4, 8, 16}, {3, 4, 31},
	}
	for i := 0; i < 300; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	var ws Workspace
	for _, s := range shapes {
		r, p, q := s[0], s[1], s[2]
		shape := fmt.Sprintf(" r=%d p=%d q=%d", r, p, q)
		for _, gen := range []func(*rand.Rand, int, int) *Matrix{randMat, edgeMat} {
			a := gen(rng, r, p)
			bNT, bNN, bTN := gen(rng, q, p), gen(rng, p, q), gen(rng, r, q)
			cNN, cTN := gen(rng, r, q), gen(rng, p, q)

			ws.Reset()
			bitsEqual(t, MatMulNTIntoWS(garbageMat(r, q), a, bNT, &ws), MatMulNTInto(garbageMat(r, q), a, bNT), "NT"+shape)

			for _, acc := range []struct {
				name    string
				f       func(c, a, b *Matrix)
				c, a, b *Matrix
			}{
				{"NN", matMulNNAcc, cNN, a, bNN},
				{"TN", matMulTNAcc, cTN, a, bTN},
			} {
				want, got := acc.c.Clone(), acc.c.Clone()
				useAVX = false
				acc.f(want, acc.a, acc.b)
				useAVX = true
				acc.f(got, acc.a, acc.b)
				bitsEqual(t, got, want, acc.name+shape)
			}
		}
	}
}

// BackwardInput is Backward minus the parameter gradients: same dL/dx bit
// for bit, GradW/GradB left exactly as they were.
func TestBackwardInputMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(21)) //nolint:gosec // test determinism
	for _, act := range []Activation{ActIdentity, ActLeakyReLU, ActSigmoid, ActTanh, ActReLU} {
		net := NewMLP(rng, 7,
			LayerSpec{Out: 33, Act: act},
			LayerSpec{Out: 12, Act: act},
			LayerSpec{Out: 2, Act: ActIdentity},
		)
		x, g := randMat(rng, 19, 7), randMat(rng, 19, 2)
		for _, l := range net.Layers { // stale gradients that must survive
			copy(l.GradW.Data, randMat(rng, l.Out, l.In).Data)
			copy(l.GradB, randMat(rng, 1, l.Out).Data)
		}
		stale := net.FlattenGrads()

		net.Forward(x)
		dx := net.BackwardInput(g).Clone()
		for i, v := range net.FlattenGrads() {
			if math.Float64bits(v) != math.Float64bits(stale[i]) {
				t.Fatalf("%v: BackwardInput changed gradient %d: %v -> %v", act, i, stale[i], v)
			}
		}
		bitsEqual(t, dx, net.Backward(g), act.String())

		net.Forward(x) // warm; the pass must then allocate nothing
		if allocs := testing.AllocsPerRun(10, func() { net.BackwardInput(g) }); allocs != 0 {
			t.Errorf("%v: warm BackwardInput allocates %v objects, want 0", act, allocs)
		}
	}
}
