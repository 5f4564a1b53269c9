package rl

import (
	"math"
	"sync"

	"edgeslice/internal/nn"
)

// BatchActor is implemented by agents whose deterministic deployment action
// can be evaluated for many observations in one wide forward pass. The
// execution engine uses it to replace J per-RA scalar Act calls per interval
// with a single batched matmul over all J gathered states, grouping RAs by
// BatchActor value, so an implementation must be comparable (a pointer, as
// every trainer's is).
type BatchActor interface {
	Agent

	// ActBatch computes the deterministic action for every row of states
	// (one observation per row) and returns an (N×ActionDim) matrix whose
	// row i is bit-identical to Act(states row i). All scratch, including
	// the returned matrix, is drawn from ws — the result is valid until ws
	// is Reset and redrawn, and implementations retain none of the inputs.
	// Once ws has seen the shapes, calls allocate nothing.
	//
	// Weights are only read and no agent-owned scratch is touched:
	// concurrent ActBatch calls are safe provided each caller supplies its
	// own workspace and no training runs concurrently.
	ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix
}

// AsBatchActor returns a as a BatchActor, or nil when a cannot batch.
func AsBatchActor(a Agent) BatchActor {
	ba, _ := a.(BatchActor)
	return ba
}

// Squash maps a squashed-Gaussian pre-activation u (SAC's actor head) to an
// action in [0,1].
func Squash(u float64) float64 { return 0.5 * (math.Tanh(u) + 1) }

// DeployedPolicy is the acting half of an agent: its acting network and
// nothing a trainer alone needs. Every trainer acts through one over its
// live network, and a checkpoint deploys to one (ckpt.Deploy). ActBatch
// reads only the weights; scalar Act serializes on the policy's own
// workspace, so both are safe for concurrent use.
type DeployedPolicy struct {
	net    *nn.Network
	squash bool // a [mean, log-std] head (SAC): act with Squash of the mean

	mu sync.Mutex
	ws nn.Workspace // scalar Act's scratch, guarded by mu
}

// NewDeployedPolicy wraps an acting network; see squash.
func NewDeployedPolicy(net *nn.Network, squash bool) *DeployedPolicy {
	return &DeployedPolicy{net: net, squash: squash}
}

// Act implements Agent; the returned action is a fresh slice.
func (p *DeployedPolicy) Act(state []float64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ws.Reset()
	in := p.ws.Next(1, len(state))
	copy(in.Data, state)
	return append([]float64(nil), p.ActBatch(in, &p.ws).Row(0)...)
}

// ActBatch implements BatchActor: one wide forward of the acting network,
// then, for a squashed head, Squash of each row's mean half.
//
//edgeslice:noalloc
func (p *DeployedPolicy) ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix {
	head := p.net.ForwardBatch(states, ws)
	if !p.squash {
		return head
	}
	out := ws.Next(head.Rows, head.Cols/2)
	for r := 0; r < head.Rows; r++ {
		h, o := head.Row(r), out.Row(r)
		for i := range o {
			o[i] = Squash(h[i])
		}
	}
	return out
}
