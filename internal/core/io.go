package core

import (
	"fmt"
	"io"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"

	// Register every training algorithm's checkpoint restore and deploy
	// functions so any v2 checkpoint loads here, whichever algorithm
	// produced it.
	_ "edgeslice/internal/rl/ppo"
	_ "edgeslice/internal/rl/sac"
	_ "edgeslice/internal/rl/trpo"
	_ "edgeslice/internal/rl/vpg"
)

// LoadAgent deploys a single-agent v2 checkpoint (edgeslice-train, the
// façade's SaveAgent): it decodes and builds the acting network alone (see
// ckpt.Deploy). The returned policy is safe for concurrent Act and ActBatch
// calls.
func LoadAgent(r io.Reader) (*rl.DeployedPolicy, error) {
	c, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	if len(c.Agents) != 1 {
		return nil, fmt.Errorf("core: checkpoint holds %d per-RA agents; load it with LoadCheckpoint and System.Restore", len(c.Agents))
	}
	return ckpt.Deploy(c.Agents[0])
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
