package core

import (
	"fmt"
	"io"
	"sync"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"

	// Register every training algorithm's checkpoint restore function so
	// any v2 checkpoint loads here, whichever algorithm produced it.
	_ "edgeslice/internal/rl/ppo"
	_ "edgeslice/internal/rl/sac"
	_ "edgeslice/internal/rl/trpo"
	_ "edgeslice/internal/rl/vpg"
)

// LoadAgent restores a single-agent v2 checkpoint (edgeslice-train, the
// façade's SaveAgent) as an rl.Agent. The returned agent is safe for
// concurrent Act calls.
func LoadAgent(r io.Reader) (rl.Agent, error) {
	c, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	if len(c.Agents) != 1 {
		return nil, fmt.Errorf("core: checkpoint holds %d per-RA agents; load it with LoadCheckpoint and System.Restore", len(c.Agents))
	}
	a, err := ckpt.RestoreAgent(c.Agents[0])
	if err != nil {
		return nil, err
	}
	// Restored agents reuse per-network forward scratch; serialize Act so
	// the loaded policy is safe to share across goroutines.
	return &lockedAgent{agent: a}, nil
}

// lockedAgent serializes Act calls to an agent whose forward pass reuses
// internal scratch buffers.
type lockedAgent struct {
	mu    sync.Mutex
	agent rl.Agent
}

// Act implements rl.Agent; it is safe for concurrent use.
func (l *lockedAgent) Act(state []float64) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agent.Act(state)
}

// UnwrapBatchActor implements rl.BatchActorUnwrapper: the lock exists only
// because the wrapped agent's scalar Act reuses internal scratch; its
// ActBatch works out of the caller's workspace and reads nothing mutable,
// so batched inference needs no serialization.
func (l *lockedAgent) UnwrapBatchActor() rl.BatchActor {
	ba, _ := l.agent.(rl.BatchActor)
	return ba
}

// SaveCheckpoint writes the system's trained agents as a full-fidelity v2
// checkpoint.
func SaveCheckpoint(w io.Writer, sys *System, opts ckpt.SnapshotOptions) error {
	c, err := sys.Snapshot(opts)
	if err != nil {
		return err
	}
	return ckpt.Write(w, c)
}
