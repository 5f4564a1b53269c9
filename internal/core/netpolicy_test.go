package core

import "edgeslice/internal/nn"

// netPolicy deploys a bare actor network as a batch-capable policy: Act runs
// the scalar forward on the network's own scratch (one caller at a time), and
// ActBatch the workspace-backed wide forward the engines call concurrently,
// whose rows are bit-identical to Act.
type netPolicy struct{ net *nn.Network }

func (p netPolicy) Act(state []float64) []float64 { return p.net.Forward1(state) }

func (p netPolicy) ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix {
	return p.net.ForwardBatch(states, ws)
}
