// Package ckpt implements the versioned, full-fidelity checkpoint format
// for trained orchestration agents: for every agent the actor, critic(s),
// target networks, optimizer moments, and the RNG cursor (plus, behind a
// flag, the replay buffer), so that a restored agent acts bitwise
// identically to the original and can resume training exactly where the
// snapshot left off. A content-addressed on-disk store keys checkpoints by
// (algorithm, hashed compiled system config, seed, train steps) so a
// trained policy is computed once and reused everywhere (the paper trains
// its D-DRL agents once and deploys them across resource autonomies,
// Sec. V).
//
// The package defines the wire format and the per-agent state container;
// the six RL algorithm packages (ddpg, td3, sac, ppo, trpo, vpg) implement
// Snapshot/Restore on top of it and register their restore functions here,
// so decoding dispatches by algorithm name without this package importing
// any of them.
package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// FormatV2 identifies the full-fidelity checkpoint this package reads and
// writes; Validate rejects any other format by name.
const FormatV2 = "edgeslice-checkpoint-v2"

// SnapshotOptions configures what an agent snapshot captures.
type SnapshotOptions struct {
	// IncludeReplay captures the replay buffer contents (off-policy
	// algorithms only). Required for exact training resume; excluded by
	// default because replay dominates checkpoint size and deployment
	// (Act) needs none of it.
	IncludeReplay bool
}

// RNGState is a replayable RNG cursor: the seed the stream started from and
// the number of values drawn since. See mathutil.ReplayRNG.
type RNGState struct {
	Seed  int64  `json:"seed"`
	Calls uint64 `json:"calls"`
}

// AgentState is the full serialized state of one trained agent. The six
// algorithms populate the generic containers as they need: Nets holds every
// network by role ("actor", "critic", "actor-target", "q1", "value", ...),
// Opts the Adam moments under the same role names, LogStd the Gaussian
// policy's free deviation parameters, Replay the optional buffer.
type AgentState struct {
	// Algo names the training algorithm ("ddpg", "td3", "sac", "ppo",
	// "trpo", "vpg") and selects the restore function.
	Algo      string `json:"algo"`
	StateDim  int    `json:"state_dim"`
	ActionDim int    `json:"action_dim"`

	// Config is the algorithm package's own Config struct, round-tripped
	// verbatim so hyper-parameters (and restored schedules) survive.
	Config json.RawMessage `json:"config"`

	Nets map[string]*nn.Network   `json:"nets"`
	Opts map[string]*nn.AdamState `json:"opts,omitempty"`

	RNG RNGState `json:"rng"`

	// NoiseStd is the current exploration-noise standard deviation for
	// algorithms with a decaying noise schedule (ddpg, td3).
	NoiseStd float64 `json:"noise_std,omitempty"`
	// LogStd holds the Gaussian policy's log standard deviations for the
	// on-policy algorithms (ppo, trpo, vpg).
	LogStd []float64 `json:"log_std,omitempty"`
	// Updates is the gradient-update counter (td3 needs it to resume the
	// delayed-actor phase exactly).
	Updates int `json:"updates,omitempty"`

	Replay *rl.ReplayState `json:"replay,omitempty"`
}

// Net returns the named network or an error naming what is missing.
func (st *AgentState) Net(role string) (*nn.Network, error) {
	n, ok := st.Nets[role]
	if !ok || n == nil || len(n.Layers) == 0 {
		return nil, fmt.Errorf("ckpt: %s snapshot missing network %q", st.Algo, role)
	}
	return n, nil
}

// CloneNet returns a deep copy of the named network, so that restoring the
// same in-memory snapshot into many agents (warm-started scenario replicas)
// never shares parameter or scratch buffers between them.
func (st *AgentState) CloneNet(role string) (*nn.Network, error) {
	n, err := st.Net(role)
	if err != nil {
		return nil, err
	}
	return n.Clone(), nil
}

// Checkpoint is the top-level wire form: one trained system — either a
// single shared agent or one agent per resource autonomy — plus the
// provenance key fields the store addresses it by.
type Checkpoint struct {
	Format string `json:"format"`
	// Algorithm is the orchestration algorithm display name ("EdgeSlice",
	// "EdgeSlice-NT").
	Algorithm string `json:"algorithm"`
	// Shared marks a single agent deployed to every RA.
	Shared bool          `json:"shared"`
	Agents []*AgentState `json:"agents"`

	// Provenance: the store key fields (informational in the file itself).
	ConfigHash string `json:"config_hash,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	TrainSteps int    `json:"train_steps,omitempty"`
}

// Validate checks structural integrity.
func (c *Checkpoint) Validate() error {
	if c.Format != FormatV2 {
		return fmt.Errorf("ckpt: format %q, want %q", c.Format, FormatV2)
	}
	if len(c.Agents) == 0 {
		return fmt.Errorf("ckpt: checkpoint has no agents")
	}
	if c.Shared && len(c.Agents) != 1 {
		return fmt.Errorf("ckpt: shared checkpoint has %d agents, want 1", len(c.Agents))
	}
	for i, st := range c.Agents {
		if st == nil {
			return fmt.Errorf("ckpt: agent %d is nil", i)
		}
		if st.Algo == "" {
			return fmt.Errorf("ckpt: agent %d names no algorithm", i)
		}
		if st.StateDim <= 0 || st.ActionDim <= 0 {
			return fmt.Errorf("ckpt: agent %d has invalid dims %dx%d", i, st.StateDim, st.ActionDim)
		}
	}
	return nil
}

// Write serializes a checkpoint as JSON.
func Write(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := json.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	return nil
}

// Read parses and validates a checkpoint.
func Read(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	return Decode(data)
}

// Decode parses and validates checkpoint bytes (see Read).
func Decode(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Snapshotter is implemented by trainable agents that can serialize their
// full training state.
type Snapshotter interface {
	Snapshot(SnapshotOptions) (*AgentState, error)
}

// RestoreFunc rebuilds an agent from its snapshot. Implementations must
// deep-copy everything they keep, so one in-memory snapshot can be restored
// into many independent agents concurrently.
type RestoreFunc func(*AgentState) (rl.Agent, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]RestoreFunc{}
)

// Register installs the restore function for an algorithm name. The
// algorithm packages call it from init, mirroring image-format
// registration; importing an algorithm package makes its checkpoints
// loadable.
func Register(algo string, fn RestoreFunc) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[algo]; dup {
		panic(fmt.Sprintf("ckpt: duplicate registration for %q", algo))
	}
	registry[algo] = fn
}

// RestoreAgent rebuilds one agent from its snapshot, dispatching on the
// algorithm name.
func RestoreAgent(st *AgentState) (rl.Agent, error) {
	registryMu.RLock()
	fn, ok := registry[st.Algo]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ckpt: no restore registered for algorithm %q (is its package imported?)", st.Algo)
	}
	return fn(st)
}
