package nn

import "fmt"

// Dense is a fully connected layer computing y = act(x·Wᵀ + b). Weights are
// stored as (out×in) so each output neuron's weights are a contiguous row.
type Dense struct {
	In, Out int
	Act     Activation

	W *Matrix // (Out×In)
	B []float64

	// Gradients accumulated by Backward; cleared by ZeroGrad.
	GradW *Matrix
	GradB []float64

	// Per-layer workspace, lazily sized to the largest batch seen and
	// reused across steps so Forward/Backward allocate nothing at steady
	// state. in holds a *copy* of the forward input — callers are free to
	// reuse their input buffer between Forward and Backward without
	// corrupting dW. pre and out cache z and y for Backward; dz and dx are
	// backward scratch; ws is the forward matmul's pack scratch.
	in, pre, out, dz, dx *Matrix
	ws                   Workspace
}

// NewDense returns a Dense layer, Xavier-initialized (zero for a nil rng).
func NewDense(rng Uniform, in, out int, act Activation) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape in=%d out=%d", in, out))
	}
	d := &Dense{
		In:    in,
		Out:   out,
		Act:   act,
		W:     NewMatrix(out, in),
		B:     make([]float64, out),
		GradW: NewMatrix(out, in),
		GradB: make([]float64, out),
	}
	if rng != nil {
		d.W.RandomizeXavier(rng, in, out)
	}
	return d
}

// Forward computes the layer output for a batch x of shape (N×In) and caches
// intermediates for Backward. The returned matrix is owned by the layer and
// is overwritten by the next Forward call; the input is copied into the
// layer workspace, so the caller may reuse x freely afterwards.
func (d *Dense) Forward(x *Matrix) *Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense forward got %d inputs, want %d", x.Cols, d.In))
	}
	in := ensureMat(&d.in, x.Rows, x.Cols)
	copy(in.Data, x.Data)
	z := ensureMat(&d.pre, x.Rows, d.Out)
	d.ws.Reset()
	MatMulNTIntoWS(z, in, d.W, &d.ws)
	y := ensureMat(&d.out, z.Rows, z.Cols)
	d.Act.biasAct(z, y, d.B)
	return y
}

// forwardInfer computes act(x·Wᵀ + b) for a batch x of shape (N×In) using
// only the caller-supplied workspace: the layer's weights are read but its
// training caches (in/pre/out) are untouched, so concurrent calls with
// distinct workspaces are safe and Backward state is preserved. Values are
// bit-identical to Forward: the same product and the same biasAct, here in
// place.
//
//edgeslice:noalloc
func (d *Dense) forwardInfer(x *Matrix, ws *Workspace) *Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense forward got %d inputs, want %d", x.Cols, d.In))
	}
	z := ws.Next(x.Rows, d.Out)
	MatMulNTIntoWS(z, x, d.W, ws)
	d.Act.biasAct(z, z, d.B)
	return z
}

// backward is the one layer body behind Network.Backward, BackwardInput and
// BackwardParams: given dL/dy of shape (N×Out), it accumulates the
// parameter gradients when params is set and returns dL/dx of shape (N×In)
// (else nil) when input is. Forward must have been called first. The
// returned matrix is owned by the layer and is overwritten by the next
// backward call.
//
//edgeslice:noalloc
func (d *Dense) backward(gradOut *Matrix, params, input bool) *Matrix {
	if d.in == nil {
		panic("nn: Backward called before Forward")
	}
	if gradOut.Rows != d.pre.Rows || gradOut.Cols != d.Out {
		panic(fmt.Sprintf("nn: dense backward shape (%d×%d), want (%d×%d)",
			gradOut.Rows, gradOut.Cols, d.pre.Rows, d.Out))
	}
	// dL/dz = dL/dy ⊙ act'(z)
	dz := ensureMat(&d.dz, gradOut.Rows, gradOut.Cols)
	d.Act.mulDerivative(dz.Data, gradOut.Data, d.pre.Data, d.out.Data)
	if params {
		// dW += dzᵀ · x ; db += colsum(dz)
		matMulTNAcc(d.GradW, dz, d.in)
		colSumAcc(d.GradB, dz)
	}
	if !input {
		return nil
	}
	// dL/dx = dz · W
	return MatMulNNInto(ensureMat(&d.dx, gradOut.Rows, d.In), dz, d.W)
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.GradW.Zero()
	for i := range d.GradB {
		d.GradB[i] = 0
	}
}

// Clone returns a deep copy of the layer's parameters (not its caches).
func (d *Dense) Clone() *Dense {
	out := &Dense{
		In:    d.In,
		Out:   d.Out,
		Act:   d.Act,
		W:     d.W.Clone(),
		B:     append([]float64(nil), d.B...),
		GradW: NewMatrix(d.Out, d.In),
		GradB: make([]float64, d.Out),
	}
	return out
}
