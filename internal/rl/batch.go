package rl

import "edgeslice/internal/nn"

// BatchActor is implemented by agents whose deterministic deployment action
// can be evaluated for many observations in one wide forward pass. The
// execution engine uses it to replace J per-RA scalar Act calls per interval
// with a single batched matmul over all J gathered states.
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
	// own workspace and no training runs concurrently, and one goroutine's
	// scalar Act (which may use agent-owned scratch) may overlap them.
	ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix
}

// BatchActorUnwrapper lets deployment wrappers (a locked loaded policy)
// expose the BatchActor of the agent they wrap. UnwrapBatchActor returns nil
// when the wrapped agent cannot batch.
type BatchActorUnwrapper interface {
	UnwrapBatchActor() BatchActor
}

// AsBatchActor resolves the BatchActor behind a, unwrapping deployment
// wrappers, or returns nil when a cannot batch.
func AsBatchActor(a Agent) BatchActor {
	switch v := a.(type) {
	case BatchActor:
		return v
	case BatchActorUnwrapper:
		return v.UnwrapBatchActor()
	default:
		return nil
	}
}
