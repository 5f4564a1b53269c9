package core

import (
	"fmt"
	"io"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"

	// Register the on-policy training algorithms' checkpoint restore and
	// deploy functions (system.go's offpolicy import registers DDPG's and
	// SAC's) so any checkpoint loads here, whichever algorithm produced
	// it.
	_ "edgeslice/internal/rl/onpolicy"
)

// LoadAgent deploys a single-agent checkpoint (edgeslice-train, or
// System.AgentCheckpoint through ckpt.Write) into an environment of the
// given state and action widths, refusing an agent of any other shape: it
// decodes and builds the acting network alone (see ckpt.Deploy). The
// returned policy is safe for concurrent Act and ActBatch calls.
func LoadAgent(r io.Reader, stateDim, actionDim int) (*rl.DeployedPolicy, error) {
	c, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	if len(c.Agents) != 1 {
		return nil, fmt.Errorf("core: checkpoint holds %d per-RA agents; deploy it with DeployCheckpoint and System.Deploy", len(c.Agents))
	}
	st := c.Agents[0]
	if st.StateDim != stateDim || st.ActionDim != actionDim {
		return nil, fmt.Errorf("core: checkpoint agent is %dx%d, environment needs %dx%d",
			st.StateDim, st.ActionDim, stateDim, actionDim)
	}
	return ckpt.Deploy(st)
}

// SaveCheckpoint writes the system's trained agents as a full-fidelity
// checkpoint.
func SaveCheckpoint(w io.Writer, sys *System, opts ckpt.SnapshotOptions) error {
	c, err := sys.Snapshot(opts)
	if err != nil {
		return err
	}
	return ckpt.Write(w, c)
}
