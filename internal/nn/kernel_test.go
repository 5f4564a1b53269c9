package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hostAVX and hostAVX512 are the kernel tiers the host detected.
var hostAVX, hostAVX512 = useAVX, useAVX512

// kernelTiers are the matmul dispatch settings the tests compare: the
// scalar loops, the AVX tiles alone and the AVX tiles under the AVX-512
// tile.
var kernelTiers = []struct{ avx, avx512 bool }{{false, false}, {true, false}, {true, true}}

// setKernels switches the matmul dispatch for the rest of the test and
// reports whether the host has the tier asked for; a host without it runs
// the best tier it has below that.
func setKernels(t testing.TB, avx, avx512 bool) bool {
	prevAVX, prevAVX512 := useAVX, useAVX512
	t.Cleanup(func() { useAVX, useAVX512 = prevAVX, prevAVX512 })
	useAVX, useAVX512 = avx && hostAVX, avx && avx512 && hostAVX512
	return useAVX == avx && useAVX512 == (avx && avx512)
}

// Every other test in this package runs on the kernels the host detected,
// which on amd64 means the scalar loops — all that any other architecture
// has — would never run. This re-runs the matmul, workspace and
// gradient-check tests on them.
func TestScalarKernels(t *testing.T) {
	if !useAVX {
		t.Skip("the host already runs the scalar loops")
	}
	setKernels(t, false, false)
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

var allActs = []Activation{ActIdentity, ActLeakyReLU, ActSigmoid, ActTanh, ActReLU}

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
	setKernels(t, true, true) // registers the restore of the dispatch the loops below flip

	rng := rand.New(rand.NewSource(15)) //nolint:gosec // test determinism
	// r, p, q: NT is (r×p)·(q×p)ᵀ, NN is (r×p)·(p×q), TN is (r×p)ᵀ·(r×q).
	shapes := [][3]int{
		{64, 32, 32}, {64, 32, 10}, {64, 1, 32}, {1, 32, 33}, {512, 128, 128},
		{9, 5, 48}, {7, 3, 64}, {5, 70, 130}, {4, 8, 16}, {3, 4, 31},
	}
	for i := 0; i < 300; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	gens := []func(*rand.Rand, int, int) *Matrix{randMat, edgeMat}
	var ws Workspace
	// nt checks the workspace product z = a·bᵀ against the scalar loop with
	// the AVX-512 tile on, then off.
	nt := func(a, b *Matrix, label string) {
		want := MatMulNTInto(garbageMat(a.Rows, b.Rows), a, b)
		for _, avx512 := range []bool{true, false} {
			useAVX512 = avx512 && hostAVX512
			ws.Reset()
			bitsEqual(t, MatMulNTIntoWS(garbageMat(a.Rows, b.Rows), a, b, &ws), want, fmt.Sprintf("%s avx512=%v", label, useAVX512))
		}
	}
	// nn and tn check the accumulating backward products onto a copy of c
	// against the scalar loops on every tier.
	nn := func(a, b, c *Matrix, label string) {
		onEveryTier(t, "NN"+label, func() []*Matrix {
			c := c.Clone()
			matMulNNAcc(c, a, b)
			return []*Matrix{c}
		})
	}
	tn := func(a, b, c *Matrix, label string) {
		onEveryTier(t, "TN"+label, func() []*Matrix {
			c := c.Clone()
			matMulTNAcc(c, a, b)
			return []*Matrix{c}
		})
	}
	for _, s := range shapes {
		r, p, q := s[0], s[1], s[2]
		shape := fmt.Sprintf(" r=%d p=%d q=%d", r, p, q)
		for _, gen := range gens {
			a := gen(rng, r, p)
			bNT, bNN, bTN := gen(rng, q, p), gen(rng, p, q), gen(rng, r, q)
			cNN, cTN := gen(rng, r, q), gen(rng, p, q)

			nt(a, bNT, "NT"+shape)

			nn(a, bNN, cNN, shape)
			tn(a, bTN, cTN, shape)
		}
	}

	// The four-row tiles' edges: every row count up to two blocks and one
	// (each rows mod 4 tail), every width from 1 to 40 (each tile width and
	// its masked tail), at inner lengths 1, 2 and 64. The third a zeroes
	// one row of each four-row block at one kk, which that row alone must
	// skip; its b holds an Inf in every row, so a step taken by mistake
	// shows as a NaN.
	oneRowZero := func(rng *rand.Rand, rows, k int) *Matrix {
		m := randMat(rng, rows, k)
		for i := 0; i < rows; i += 4 {
			m.Set(i+rng.Intn(min(4, rows-i)), rng.Intn(k), edgeValues[rng.Intn(2)])
		}
		return m
	}
	infInEveryRow := func(rng *rand.Rand, rows, cols int) *Matrix {
		m := randMat(rng, rows, cols)
		for kk := 0; kk < rows; kk++ {
			m.Set(kk, rng.Intn(cols), math.Inf(1))
		}
		return m
	}
	for _, k := range []int{1, 2, 64} {
		for r := 1; r <= 9; r++ {
			for q := 1; q <= 40; q++ {
				shape := fmt.Sprintf(" rows=%d k=%d width=%d", r, k, q)
				for i, genA := range []func(*rand.Rand, int, int) *Matrix{randMat, edgeMat, oneRowZero} {
					genB := randMat
					if i == 2 {
						genB = infInEveryRow
					}
					nn(genA(rng, r, k), genB(rng, k, q), randMat(rng, r, q), shape)
					tn(transpose(genA(rng, r, k)), genB(rng, k, q), randMat(rng, r, q), shape)
				}
			}
		}
	}

	// The AVX-512 tile's edges: every row count from one 8-row block to five
	// blocks and one (each n mod 8 tail), every output width from 1 to 40
	// (each m mod 16 tail, and widths under one panel), at tiny, odd and the
	// actor's inner lengths.
	for _, k := range []int{1, 2, 3, 4, 7, 128, 130} {
		for n := 8; n <= 41; n++ {
			for m := 1; m <= 40; m++ {
				for _, gen := range gens {
					nt(gen(rng, n, k), gen(rng, m, k), fmt.Sprintf("NT n=%d k=%d m=%d", n, k, m))
				}
			}
		}
	}

	// The element-wise passes, at lengths that are all tail, whole vectors
	// only and both; biasAct also in place, as inference runs it.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33} {
		for _, gen := range gens {
			const rows = 3
			z, b, up, y := gen(rng, rows, n), gen(rng, 1, n), gen(rng, rows, n), gen(rng, rows, n)
			for _, act := range allActs {
				label := fmt.Sprintf("%v n=%d", act, n)
				onEveryTier(t, "biasAct "+label, func() []*Matrix {
					pre, out, inPlace := z.Clone(), garbageMat(rows, n), z.Clone()
					act.biasAct(pre, out, b.Data)
					act.biasAct(inPlace, inPlace, b.Data)
					return []*Matrix{pre, out, inPlace}
				})
				onEveryTier(t, "mulDerivative "+label, func() []*Matrix {
					dz := garbageMat(rows, n)
					act.mulDerivative(dz.Data, up.Data, z.Data, y.Data)
					return []*Matrix{dz}
				})
			}
			onEveryTier(t, fmt.Sprintf("softUpdate n=%d", n), func() []*Matrix {
				dst := z.Clone()
				softUpdate(dst.Data, up.Data, 0.01)
				return []*Matrix{dst}
			})
			onEveryTier(t, fmt.Sprintf("colSumAcc n=%d", n), func() []*Matrix {
				c := b.Clone()
				colSumAcc(c.Data, z)
				return []*Matrix{c}
			})
		}
	}
}

// The tiles index c unchecked, and the last 1–3 rows of a product are
// copied out of a padded four-row block: each row count under four and each
// n mod 4 tail past a full panel, at inner lengths and output widths around
// the tile edges, must write exactly its n×m window on every tier. c is a
// window into a longer slice whose sentinel border must survive, and the
// window must hold MatMulNTInto's result bit for bit.
func TestRowTailStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(35)) //nolint:gosec // test determinism
	sentinel := math.Float64frombits(0x7ff4_dead_beef_cafe)
	const border = 64
	var ws Workspace
	for _, tier := range kernelTiers {
		if !setKernels(t, tier.avx, tier.avx512) {
			continue
		}
		for _, n := range []int{1, 2, 3, 5, 6, 7, 8, 9, 10, 11} {
			for _, k := range []int{1, 4, 10, 32, 128} {
				for _, m := range []int{1, 6, 7, 8, 9, 16, 17, 32, 33, 128} {
					for _, gen := range []func(*rand.Rand, int, int) *Matrix{randMat, edgeMat} {
						a, b := gen(rng, n, k), gen(rng, m, k)
						label := fmt.Sprintf("avx=%v avx512=%v n=%d k=%d m=%d", useAVX, useAVX512, n, k, m)
						buf := make([]float64, border+n*m+border)
						for i := range buf {
							buf[i] = sentinel
						}
						c := &Matrix{Rows: n, Cols: m, Data: buf[border : border+n*m]}
						ws.Reset()
						MatMulNTIntoWS(c, a, b, &ws)
						for side, edge := range [][]float64{buf[:border], buf[border+n*m:]} {
							for i, v := range edge {
								if math.Float64bits(v) != math.Float64bits(sentinel) {
									t.Fatalf("%s: wrote %v at border %d element %d, outside c", label, v, side, i)
								}
							}
						}
						bitsEqual(t, c, MatMulNTInto(garbageMat(n, m), a, b), label)
					}
				}
			}
		}
	}
}

// The backward products accumulate onto c through masked tiles and index
// it unchecked: at every tier, for each rows mod 4 tail and widths around
// each tile's edges, matMulNNAcc and matMulTNAcc must write exactly their
// c window — a window into a longer slice whose sentinel border must
// survive — and leave in it the scalar loops' result bit for bit.
func TestBackwardStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(39)) //nolint:gosec // test determinism
	sentinel := math.Float64frombits(0x7ff4_dead_beef_cafe)
	const border = 64
	products := []struct {
		name string
		acc  func(c, a, b *Matrix)
		a    func(rows, k int) *Matrix // an a giving c that many rows
	}{
		{"NN", matMulNNAcc, func(rows, k int) *Matrix { return edgeMat(rng, rows, k) }},
		{"TN", matMulTNAcc, func(rows, k int) *Matrix { return edgeMat(rng, k, rows) }},
	}
	for _, tier := range kernelTiers {
		if !setKernels(t, tier.avx, tier.avx512) {
			continue
		}
		for _, p := range products {
			for n := 1; n <= 11; n++ {
				for _, k := range []int{1, 4, 33} {
					for _, m := range []int{1, 4, 7, 8, 9, 10, 15, 16, 17, 24, 25, 31, 32, 33, 40, 57, 64, 65} {
						label := fmt.Sprintf("%s avx=%v avx512=%v rows=%d k=%d width=%d", p.name, useAVX, useAVX512, n, k, m)
						a, b, c0 := p.a(n, k), edgeMat(rng, k, m), randMat(rng, n, m)
						buf := make([]float64, border+n*m+border)
						for i := range buf {
							buf[i] = sentinel
						}
						c := &Matrix{Rows: n, Cols: m, Data: buf[border : border+n*m]}
						copy(c.Data, c0.Data)
						p.acc(c, a, b)
						for side, edge := range [][]float64{buf[:border], buf[border+n*m:]} {
							for i, v := range edge {
								if math.Float64bits(v) != math.Float64bits(sentinel) {
									t.Fatalf("%s: wrote %v at border %d element %d, outside c", label, v, side, i)
								}
							}
						}
						useAVX = false
						p.acc(c0, a, b)
						useAVX = tier.avx
						bitsEqual(t, c, c0, label)
					}
				}
			}
		}
	}
}

// onEveryTier runs f on the scalar loops, then on each vector tier the host
// has, and compares the matrices it returns. The caller restores the
// dispatch.
func onEveryTier(t *testing.T, label string, f func() []*Matrix) {
	t.Helper()
	useAVX, useAVX512 = false, false
	want := f()
	for _, tier := range kernelTiers[1:] {
		if tier.avx512 && !hostAVX512 {
			continue
		}
		useAVX, useAVX512 = true, tier.avx512
		for i, got := range f() {
			bitsEqual(t, got, want[i], fmt.Sprintf("%s avx512=%v [%d]", label, useAVX512, i))
		}
	}
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Set(j, i, v)
		}
	}
	return out
}

// In place on inference's workspace or out of place into the layer's
// caches, the bias + activation pass is one function: row i of ForwardBatch
// is row i of Forward bit for bit, for every activation, at widths that are
// all tail, whole vectors only and both, on every kernel tier. Thirteen rows
// are an 8-row block, a 4-row panel and one row past both.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22)) //nolint:gosec // test determinism
	var ws Workspace
	for _, tier := range kernelTiers {
		if !setKernels(t, tier.avx, tier.avx512) {
			continue
		}
		for _, act := range allActs {
			for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 40} {
				net := NewMLP(rng, 5, LayerSpec{Out: w, Act: act}, LayerSpec{Out: w, Act: act})
				x := edgeMat(rng, 13, 5)
				ws.Reset()
				bitsEqual(t, net.ForwardBatch(x, &ws), net.Forward(x),
					fmt.Sprintf("avx=%v avx512=%v %v width %d", useAVX, useAVX512, act, w))
			}
		}
	}
}

// Fifty Adam steps on the same gradient stream — an all-zero gradient first,
// so the first update divides by sqrt(0) + ε, and exact zeros throughout —
// leave parameters and both moment vectors bit-identical on either side of
// the dispatch. Layer widths put whole vectors, tails and both in play.
func TestAdamBitIdenticalAcrossKernels(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernels on this host")
	}
	setKernels(t, true, true) // registers the restore of the dispatch the loops below flip

	rng := rand.New(rand.NewSource(23)) //nolint:gosec // test determinism
	scalar := NewMLP(rng, 5, LayerSpec{Out: 33, Act: ActLeakyReLU}, LayerSpec{Out: 7, Act: ActTanh}, LayerSpec{Out: 1, Act: ActIdentity})
	avx := scalar.Clone()
	scalarOpt, avxOpt := NewAdam(1e-3), NewAdam(1e-3)
	for step := 0; step < 50; step++ {
		for i, p := range scalar.Params() {
			for k := range p.Grad {
				g := 0.0
				if step > 0 && rng.Intn(5) > 0 {
					g = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
				p.Grad[k], avx.Params()[i].Grad[k] = g, g
			}
		}
		useAVX = false
		scalarOpt.Step(scalar)
		useAVX = true
		avxOpt.Step(avx)

		want, got := scalarOpt.StateFor(scalar), avxOpt.StateFor(avx)
		for i, p := range scalar.Params() {
			label := fmt.Sprintf("step %d tensor %d ", step, i)
			row := func(v []float64) *Matrix { return &Matrix{Rows: 1, Cols: len(v), Data: v} }
			bitsEqual(t, row(avx.Params()[i].Value), row(p.Value), label+"value")
			bitsEqual(t, row(got.M[i]), row(want.M[i]), label+"m")
			bitsEqual(t, row(got.V[i]), row(want.V[i]), label+"v")
		}
	}
}

// BackwardInput is Backward minus the parameter gradients: same dL/dx bit
// for bit, GradW/GradB left exactly as they were.
func TestBackwardInputMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(21)) //nolint:gosec // test determinism
	for _, act := range allActs {
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
