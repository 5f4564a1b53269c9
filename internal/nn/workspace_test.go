package nn

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// garbageMat returns a correctly shaped destination pre-filled with junk so
// the tests catch Into variants that forget to overwrite or zero.
func garbageMat(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 1e9
	}
	return m
}

func matsEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) //nolint:gosec // test determinism
	a := randMat(rng, 5, 3)
	bNT := randMat(rng, 4, 3) // (m×k) for NT
	bNN := randMat(rng, 3, 4) // (k×m) for NN

	matsEqual(t, MatMulNTInto(garbageMat(5, 4), a, bNT), MatMulNTInto(NewMatrix(5, 4), a, bNT), "NT")
	matsEqual(t, MatMulNNInto(garbageMat(5, 4), a, bNN), MatMulNNInto(NewMatrix(5, 4), a, bNN), "NN")
}

func TestMatMulIntoShapeChecks(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 3)
	defer func() {
		if recover() == nil {
			t.Error("mis-shaped destination should panic")
		}
	}()
	MatMulNTInto(NewMatrix(2, 3), a, b) // want 2x4
}

// Regression for the input-aliasing bug: Dense.Forward used to cache the
// caller's matrix by reference, so reusing the input buffer between Forward
// and Backward silently corrupted dW.
func TestDenseForwardCopiesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //nolint:gosec // test determinism
	ref := NewDense(rng, 3, 2, ActLeakyReLU)
	mut := ref.Clone()
	x := FromRows([][]float64{{0.3, -0.2, 0.5}, {1, 2, 3}})
	g := FromRows([][]float64{{1, -1}, {0.5, 0.25}})

	ref.Forward(x.Clone())
	ref.backward(g, true, true)

	// Same computation, but the caller scribbles over its input buffer
	// between Forward and Backward.
	xReused := x.Clone()
	mut.Forward(xReused)
	for i := range xReused.Data {
		xReused.Data[i] = 99
	}
	mut.backward(g, true, true)

	matsEqual(t, mut.GradW, ref.GradW, "GradW after caller reused input buffer")
}

// The layer workspace must track batch-size changes across calls.
func TestDenseBatchSizeChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //nolint:gosec // test determinism
	d := NewDense(rng, 2, 3, ActSigmoid)
	for _, n := range []int{4, 1, 7, 2} {
		x := randMat(rng, n, 2)
		y := d.Forward(x)
		if y.Rows != n || y.Cols != 3 {
			t.Fatalf("forward batch %d: got %dx%d", n, y.Rows, y.Cols)
		}
		dx := d.backward(randMat(rng, n, 3), true, true)
		if dx.Rows != n || dx.Cols != 2 {
			t.Fatalf("backward batch %d: got %dx%d", n, dx.Rows, dx.Cols)
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	m1 := ws.Next(4, 3)
	v1 := ws.Floats(8)
	ws.Reset()
	m2 := ws.Next(2, 2) // smaller shape must reuse the same backing array
	v2 := ws.Floats(5)
	if &m1.Data[0] != &m2.Data[0] {
		t.Error("matrix backing array was not reused across Reset")
	}
	if &v1[0] != &v2[0] {
		t.Error("float slice backing array was not reused across Reset")
	}
	if m2.Rows != 2 || m2.Cols != 2 || len(v2) != 5 {
		t.Errorf("reused buffers have wrong shapes: %dx%d, len %d", m2.Rows, m2.Cols, len(v2))
	}
	ws.Reset()
	big := ws.Next(10, 10) // growth path
	if len(big.Data) != 100 {
		t.Errorf("grown matrix has %d elements, want 100", len(big.Data))
	}
}

func TestWorkspaceFromRows(t *testing.T) {
	var ws Workspace
	m := ws.FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Errorf("FromRows content wrong: %v", m.Data)
	}
	z := ws.NextZeroed(2, 2)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("NextZeroed returned non-zero data")
		}
	}
}

// A full network update step must be allocation-free at steady state.
func TestNetworkStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) //nolint:gosec // test determinism
	net := NewMLP(rng, 4,
		LayerSpec{Out: 16, Act: ActLeakyReLU},
		LayerSpec{Out: 3, Act: ActSigmoid},
	)
	opt := NewAdam(1e-3)
	x := randMat(rng, 8, 4)
	g := randMat(rng, 8, 3)
	step := func() {
		net.Forward(x)
		net.ZeroGrad()
		net.Backward(g)
		opt.Step(net)
	}
	step() // warm the workspaces and optimizer state
	allocs := testing.AllocsPerRun(10, step)
	if allocs != 0 {
		t.Errorf("network update allocates %v objects per step, want 0", allocs)
	}
}
