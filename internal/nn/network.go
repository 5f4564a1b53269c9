package nn

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Network is a multilayer perceptron: a sequence of Dense layers.
type Network struct {
	Layers []*Dense

	ws1    Workspace   // Forward1 scratch arena
	params []ParamGrad // cached Params() result; nil until first use
}

// LayerSpec describes one layer of an MLP.
type LayerSpec struct {
	Out int
	Act Activation
}

// NewMLP builds a network with the given input width and layer specs.
func NewMLP(rng *rand.Rand, in int, specs ...LayerSpec) *Network {
	if len(specs) == 0 {
		panic("nn: NewMLP needs at least one layer")
	}
	n := &Network{Layers: make([]*Dense, 0, len(specs))}
	prev := in
	for _, s := range specs {
		n.Layers = append(n.Layers, NewDense(rng, prev, s.Out, s.Act))
		prev = s.Out
	}
	return n
}

// InputDim returns the expected input width.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim returns the output width.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// Forward runs a batch (N×InputDim) through the network. The returned
// matrix is owned by the final layer's workspace and is overwritten by the
// next Forward call on this network; the input is copied, so the caller may
// reuse x freely.
func (n *Network) Forward(x *Matrix) *Matrix {
	y := x
	for _, l := range n.Layers {
		y = l.Forward(y)
	}
	return y
}

// ForwardBatch runs a batch (N×InputDim) through the network for inference,
// drawing every intermediate from the caller-supplied workspace. Unlike
// Forward it touches no layer caches: weights are only read, so concurrent
// ForwardBatch calls on one network are safe as long as each caller uses its
// own Workspace (and no training runs concurrently). Row i of the result is
// bit-identical to Forward1(x row i) — see MatMulNTInto for why batching
// preserves bits. The returned matrix belongs to ws and is valid until the
// next draw after a ws.Reset; the input is not retained. Once ws has seen
// the shapes, calls allocate nothing. Backward must not follow ForwardBatch:
// no intermediates are cached.
//
//edgeslice:noalloc
func (n *Network) ForwardBatch(x *Matrix, ws *Workspace) *Matrix {
	y := x
	for _, l := range n.Layers {
		y = l.forwardInfer(y, ws)
	}
	return y
}

// Forward1WS runs a single input vector through the network using only the
// caller-supplied workspace and returns a workspace-backed output slice
// (valid until ws is Reset and redrawn). The caller is responsible for
// resetting ws between steps; warm calls allocate nothing. Results are
// bit-identical to Forward1.
//
//edgeslice:noalloc
func (n *Network) Forward1WS(x []float64, ws *Workspace) []float64 {
	in := ws.Next(1, len(x))
	copy(in.Data, x)
	return n.ForwardBatch(in, ws).Row(0)
}

// Forward1 runs a single input vector and returns a freshly allocated
// output vector. It routes through the inference path (Forward1WS) on a
// network-owned workspace, so layer training caches are left untouched; the
// single warm allocation is the returned copy — hot paths that can tolerate
// workspace-backed results should call Forward1WS directly.
func (n *Network) Forward1(x []float64) []float64 {
	n.ws1.Reset()
	return append([]float64(nil), n.Forward1WS(x, &n.ws1)...)
}

// Backward backpropagates dL/dy through the network, accumulating parameter
// gradients, and returns dL/dx (useful for DDPG's critic-to-actor chain
// rule, Eq. 18).
func (n *Network) Backward(gradOut *Matrix) *Matrix { return n.backward(gradOut, true, true) }

// BackwardInput returns the dL/dx Backward would, bit for bit, without
// touching the parameter gradients: the pass for callers that differentiate
// through a network they are not updating (the critic in an actor update).
//
//edgeslice:noalloc
func (n *Network) BackwardInput(gradOut *Matrix) *Matrix { return n.backward(gradOut, false, true) }

// BackwardParams accumulates the parameter gradients Backward would, bit
// for bit, without the first layer's dL/dx: the pass for a trainer, which
// updates the network and has no use for the gradient of its input.
//
//edgeslice:noalloc
func (n *Network) BackwardParams(gradOut *Matrix) { n.backward(gradOut, true, false) }

// backward is the one pass behind the three forms above; layers past the
// first always produce dL/dx, the next layer down's upstream gradient.
//
//edgeslice:noalloc
func (n *Network) backward(g *Matrix, params, input bool) *Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].backward(g, params, input || i > 0)
	}
	return g
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		l.ZeroGrad()
	}
}

// Clone returns a deep copy of the network parameters.
func (n *Network) Clone() *Network {
	out := &Network{Layers: make([]*Dense, 0, len(n.Layers))}
	for _, l := range n.Layers {
		out.Layers = append(out.Layers, l.Clone())
	}
	return out
}

// SoftUpdate blends parameters from src: θ ← τ·θsrc + (1−τ)·θ. DDPG uses
// this to track critic/actor parameters in the target networks (Fig. 3).
func (n *Network) SoftUpdate(src *Network, tau float64) {
	mustSameArch(n, src)
	for i, l := range n.Layers {
		softUpdate(l.W.Data, src.Layers[i].W.Data, tau)
		softUpdate(l.B, src.Layers[i].B, tau)
	}
}

//edgeslice:noalloc
func softUpdate(dst, src []float64, tau float64) {
	src = src[:len(dst)]
	if useAVX && len(dst) > 0 {
		softUpdateAVX(&dst[0], &src[0], len(dst), tau, 1-tau)
		return
	}
	for k := range dst {
		dst[k] = tau*src[k] + (1-tau)*dst[k]
	}
}

// Params returns flat views of every parameter tensor paired with its
// gradient, for optimizers. The slice is built once and cached — parameter
// and gradient buffers are stable for the life of the network — so calling
// it in an optimizer step allocates nothing.
func (n *Network) Params() []ParamGrad {
	if n.params != nil {
		return n.params
	}
	out := make([]ParamGrad, 0, 2*len(n.Layers))
	for _, l := range n.Layers {
		out = append(out,
			ParamGrad{Value: l.W.Data, Grad: l.GradW.Data},
			ParamGrad{Value: l.B, Grad: l.GradB},
		)
	}
	n.params = out
	return out
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	var c int
	for _, l := range n.Layers {
		c += len(l.W.Data) + len(l.B)
	}
	return c
}

// FlattenParams copies all parameters into a single vector.
func (n *Network) FlattenParams() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.Layers {
		out = append(out, l.W.Data...)
		out = append(out, l.B...)
	}
	return out
}

// FlattenGrads copies all gradients into a single vector in the same order
// as FlattenParams.
func (n *Network) FlattenGrads() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.Layers {
		out = append(out, l.GradW.Data...)
		out = append(out, l.GradB...)
	}
	return out
}

// SetFlatParams writes a flat parameter vector (as produced by
// FlattenParams) back into the network.
func (n *Network) SetFlatParams(flat []float64) error {
	if len(flat) != n.NumParams() {
		return fmt.Errorf("nn: SetFlatParams got %d values, want %d", len(flat), n.NumParams())
	}
	i := 0
	for _, l := range n.Layers {
		i += copy(l.W.Data, flat[i:i+len(l.W.Data)])
		i += copy(l.B, flat[i:i+len(l.B)])
	}
	return nil
}

// ParamGrad pairs a parameter tensor with its gradient buffer.
type ParamGrad struct {
	Value []float64
	Grad  []float64
}

func mustSameArch(a, b *Network) {
	if err := SameShape(a, b); err != nil {
		panic(err.Error())
	}
}

// SameShape reports an error unless a and b have the same number of layers
// and the same input and output widths layer by layer: what a target
// network needs to track its online network.
func SameShape(a, b *Network) error {
	if len(a.Layers) != len(b.Layers) {
		return fmt.Errorf("nn: architecture mismatch: %d vs %d layers", len(a.Layers), len(b.Layers))
	}
	for i := range a.Layers {
		if a.Layers[i].In != b.Layers[i].In || a.Layers[i].Out != b.Layers[i].Out {
			return fmt.Errorf("nn: layer %d shape mismatch: %dx%d vs %dx%d", i,
				a.Layers[i].Out, a.Layers[i].In, b.Layers[i].Out, b.Layers[i].In)
		}
	}
	return nil
}

// snapshot is the JSON wire form of a network.
type snapshot struct {
	Layers []layerSnapshot `json:"layers"`
}

type layerSnapshot struct {
	In  int       `json:"in"`
	Out int       `json:"out"`
	Act string    `json:"act"`
	W   []float64 `json:"w"`
	B   []float64 `json:"b"`
}

// MarshalJSON serializes the network weights.
func (n *Network) MarshalJSON() ([]byte, error) {
	s := snapshot{Layers: make([]layerSnapshot, 0, len(n.Layers))}
	for _, l := range n.Layers {
		s.Layers = append(s.Layers, layerSnapshot{
			In: l.In, Out: l.Out, Act: l.Act.String(),
			W: l.W.Data, B: l.B,
		})
	}
	return json.Marshal(s)
}

// UnmarshalJSON restores network weights, rebuilding the layer structure.
func (n *Network) UnmarshalJSON(data []byte) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("nn: decode network: %w", err)
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("nn: decode network: no layers")
	}
	layers := make([]*Dense, 0, len(s.Layers))
	for i, ls := range s.Layers {
		act, err := ParseActivation(ls.Act)
		if err != nil {
			return fmt.Errorf("nn: layer %d: %w", i, err)
		}
		if ls.In <= 0 || ls.Out <= 0 {
			return fmt.Errorf("nn: layer %d: invalid shape %dx%d", i, ls.Out, ls.In)
		}
		if i > 0 && ls.In != s.Layers[i-1].Out {
			return fmt.Errorf("nn: layer %d takes %d inputs, layer %d gives %d", i, ls.In, i-1, s.Layers[i-1].Out)
		}
		if len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
			return fmt.Errorf("nn: layer %d: weight sizes do not match shape", i)
		}
		d := &Dense{
			In: ls.In, Out: ls.Out, Act: act,
			W:     &Matrix{Rows: ls.Out, Cols: ls.In, Data: append([]float64(nil), ls.W...)},
			B:     append([]float64(nil), ls.B...),
			GradW: NewMatrix(ls.Out, ls.In),
			GradB: make([]float64, ls.Out),
		}
		layers = append(layers, d)
	}
	n.Layers = layers
	n.params = nil // layer buffers were replaced; rebuild the cache lazily
	return nil
}
