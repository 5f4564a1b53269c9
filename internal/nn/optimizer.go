package nn

import (
	"fmt"
	"math"
)

// Optimizer updates network parameters from their accumulated gradients.
// Implementations assume gradients are for *minimization*; callers that
// maximize (e.g. the DDPG actor, Eq. 18) negate gradients before stepping.
// Steps are allocation-free at steady state: per-network moment buffers
// are created on first use and reused, and Network.Params is cached.
type Optimizer interface {
	// Step applies one update to every parameter of the network and leaves
	// gradients untouched (callers ZeroGrad between steps).
	Step(n *Network)
}

// Adam implements the Adam optimizer (Kingma & Ba, 2015), the default used
// for the paper's actor and critic networks (learning rate 0.001).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	state map[*Network]*adamState
}

type adamState struct {
	t    int
	m, v [][]float64
}

// NewAdam returns an Adam optimizer with standard β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, state: make(map[*Network]*adamState)}
}

// Step implements Optimizer.
func (o *Adam) Step(n *Network) {
	params := n.Params()
	st, ok := o.state[n]
	if !ok {
		st = &adamState{m: make([][]float64, len(params)), v: make([][]float64, len(params))}
		for i, p := range params {
			st.m[i] = make([]float64, len(p.Value))
			st.v[i] = make([]float64, len(p.Value))
		}
		o.state[n] = st
	}
	st.t++
	b1c := 1 - math.Pow(o.Beta1, float64(st.t))
	b2c := 1 - math.Pow(o.Beta2, float64(st.t))
	c := [8]float64{o.Beta1, 1 - o.Beta1, o.Beta2, 1 - o.Beta2, b1c, b2c, o.LR, o.Epsilon}
	for i, p := range params {
		m, v := st.m[i], st.v[i]
		if n := len(p.Value); useAVX && n > 0 {
			_, _, _ = p.Grad[n-1], m[n-1], v[n-1]
			adamStepAVX(&p.Value[0], &p.Grad[0], &m[0], &v[0], n, &c)
			continue
		}
		for k := range p.Value {
			g := p.Grad[k]
			m[k] = o.Beta1*m[k] + (1-o.Beta1)*g
			v[k] = o.Beta2*v[k] + (1-o.Beta2)*g*g
			mHat := m[k] / b1c
			vHat := v[k] / b2c
			p.Value[k] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}

// AdamState is a snapshot of one network's Adam moments: the step counter
// and the first/second moment vectors in Params order.
type AdamState struct {
	T    int
	M, V [][]float64
}

// StateFor returns a deep copy of the moment buffers accumulated for n, or
// nil if the optimizer has not stepped n yet (a valid state: restoring nil
// is a no-op and the moments start fresh, exactly as before the first Step).
func (o *Adam) StateFor(n *Network) *AdamState {
	st, ok := o.state[n]
	if !ok {
		return nil
	}
	out := &AdamState{T: st.t, M: make([][]float64, len(st.m)), V: make([][]float64, len(st.v))}
	for i := range st.m {
		out.M[i] = append([]float64(nil), st.m[i]...)
		out.V[i] = append([]float64(nil), st.v[i]...)
	}
	return out
}

// SetStateFor installs snapshot moments for n, validating the shapes
// against the network's parameters, and takes ownership of snap's moment
// vectors. A nil snapshot clears any existing state so the next Step starts
// from fresh moments.
func (o *Adam) SetStateFor(n *Network, snap *AdamState) error {
	if snap == nil {
		delete(o.state, n)
		return nil
	}
	params := n.Params()
	if len(snap.M) != len(params) || len(snap.V) != len(params) {
		return fmt.Errorf("nn: adam state has %d/%d moment tensors, want %d", len(snap.M), len(snap.V), len(params))
	}
	st := &adamState{t: snap.T, m: make([][]float64, len(params)), v: make([][]float64, len(params))}
	for i, p := range params {
		if len(snap.M[i]) != len(p.Value) || len(snap.V[i]) != len(p.Value) {
			return fmt.Errorf("nn: adam state tensor %d has %d/%d values, want %d", i, len(snap.M[i]), len(snap.V[i]), len(p.Value))
		}
		st.m[i], st.v[i] = snap.M[i], snap.V[i]
	}
	o.state[n] = st
	return nil
}

// ClipGrads scales the network's gradients so their global L2 norm does not
// exceed maxNorm. It returns the pre-clip norm. PPO/TRPO-style trainers use
// this to stabilize updates.
func ClipGrads(n *Network, maxNorm float64) float64 {
	var sq float64
	for _, p := range n.Params() {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range n.Params() {
		for k := range p.Grad {
			p.Grad[k] *= scale
		}
	}
	return norm
}
