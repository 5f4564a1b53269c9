// Package ckpt implements the versioned, full-fidelity checkpoint format
// for trained orchestration agents: for every agent the actor, critic(s),
// target networks, optimizer moments, and the state of its random
// generator (plus, behind a flag, the replay buffer), so that a restored
// agent acts bitwise identically to the original and can resume training
// exactly where the snapshot left off. The generator is a PCG, so its state
// is 20 bytes at any training length and restoring it is O(1). A
// content-addressed on-disk store keys checkpoints by (algorithm, hashed
// compiled system config, seed, train steps, format version) so a trained
// policy is computed once and reused everywhere (the paper trains its D-DRL
// agents once and deploys them across resource autonomies, Sec. V).
//
// Decoding keeps each network and optimizer role as raw JSON: RestoreAgent
// decodes them all into a trainer, Deploy only the acting network.
//
// The package defines the wire format and the per-agent state container;
// the trainer packages (offpolicy for ddpg and sac, onpolicy for ppo, trpo
// and vpg) implement Snapshot/Restore on top of it and register their
// restore and deploy functions here, so decoding dispatches by algorithm
// name without this package importing any of them.
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Format identifies the full-fidelity checkpoint this package reads and
// writes; Validate rejects any other format by name. Version 3 stores each
// agent's generator state where version 2 stored a (seed, draws) cursor.
const Format = "edgeslice-checkpoint-" + formatVersion

// formatVersion ends Format and every store key (see Key).
const formatVersion = "v3"

// SnapshotOptions configures what an agent snapshot captures.
type SnapshotOptions struct {
	// IncludeReplay captures the replay buffer contents (off-policy
	// algorithms only). Required for exact training resume; excluded by
	// default because replay dominates checkpoint size and deployment
	// (Act) needs none of it.
	IncludeReplay bool
}

// AgentState is the full serialized state of one trained agent. The five
// algorithms populate the generic containers as they need: Nets holds every
// network by role ("actor", "critic", "actor-target", "q1", "value", ...),
// Opts the Adam moments under the same role names, LogStd the Gaussian
// policy's free deviation parameters, Replay the optional buffer. Nets and
// Opts hold each role's JSON as written (EncodeRoles); Net and RestoreAdam
// decode one role, afresh, when a restore or deploy asks for it.
type AgentState struct {
	// Algo names the training algorithm ("ddpg", "sac", "ppo", "trpo",
	// "vpg") and selects the restore function.
	Algo      string `json:"algo"`
	StateDim  int    `json:"state_dim"`
	ActionDim int    `json:"action_dim"`

	// Config is the algorithm package's own Config struct, round-tripped
	// verbatim so hyper-parameters (and restored schedules) survive.
	Config json.RawMessage `json:"config"`

	Nets map[string]json.RawMessage `json:"nets"`
	Opts map[string]json.RawMessage `json:"opts,omitempty"`

	// RNG is the trainer's generator state, as rand.PCG's MarshalBinary
	// writes it.
	RNG []byte `json:"rng"`

	// NoiseStd is the current exploration-noise standard deviation for
	// algorithms with a decaying noise schedule (ddpg).
	NoiseStd float64 `json:"noise_std,omitempty"`
	// LogStd holds the Gaussian policy's log standard deviations for the
	// on-policy algorithms (ppo, trpo, vpg).
	LogStd []float64 `json:"log_std,omitempty"`

	Replay *ReplayState `json:"replay,omitempty"`
}

// ReplayState is an off-policy trainer's replay buffer as a snapshot holds
// it: capacity, the eviction cursor, and the stored transitions in storage
// order, so that a restored buffer samples and evicts exactly as the
// original.
type ReplayState struct {
	Capacity    int             `json:"capacity"`
	Next        int             `json:"next"`
	Transitions []rl.Transition `json:"transitions"`
}

// ErrMissingNet reports a network role a restore or deploy needs.
var ErrMissingNet = errors.New("ckpt: snapshot missing network")

// EncodeRoles encodes each network and Adam state under its role name, the
// form AgentState.Nets and Opts hold: a point-in-time copy.
func EncodeRoles(nets map[string]*nn.Network, moments map[string]*nn.AdamState) (n, o map[string]json.RawMessage, err error) {
	n, o = make(map[string]json.RawMessage, len(nets)), make(map[string]json.RawMessage, len(moments))
	for role, v := range nets {
		if n[role], err = json.Marshal(v); err != nil {
			return nil, nil, fmt.Errorf("ckpt: encode %q: %w", role, err)
		}
	}
	for role, v := range moments {
		if o[role], err = json.Marshal(v); err != nil {
			return nil, nil, fmt.Errorf("ckpt: encode %q moments: %w", role, err)
		}
	}
	return n, o, nil
}

// Net decodes the named network into a new one.
func (st *AgentState) Net(role string) (*nn.Network, error) {
	raw, ok := st.Nets[role]
	if !ok {
		return nil, fmt.Errorf("%w %q (%s)", ErrMissingNet, role, st.Algo)
	}
	n := new(nn.Network)
	if err := json.Unmarshal(raw, n); err != nil {
		return nil, fmt.Errorf("ckpt: %s network %q: %w", st.Algo, role, err)
	}
	return n, nil
}

// NetDims decodes the named network and checks that it maps in inputs to
// out outputs.
func (st *AgentState) NetDims(role string, in, out int) (*nn.Network, error) {
	n, err := st.Net(role)
	if err != nil {
		return nil, err
	}
	if n.InputDim() != in || n.OutputDim() != out {
		return nil, fmt.Errorf("ckpt: %s %s network is %dx%d, want %dx%d",
			st.Algo, role, n.InputDim(), n.OutputDim(), in, out)
	}
	return n, nil
}

// NetLike decodes the named network and checks that it has like's layer
// shapes: a target network and the online network it tracks.
func (st *AgentState) NetLike(role string, like *nn.Network) (*nn.Network, error) {
	n, err := st.Net(role)
	if err != nil {
		return nil, err
	}
	if err := nn.SameShape(n, like); err != nil {
		return nil, fmt.Errorf("ckpt: %s %s network: %w", st.Algo, role, err)
	}
	return n, nil
}

// RestoreAdam decodes the named role's Adam moments into opt for n; a role
// with none leaves n's moments fresh, as before the optimizer's first step.
func (st *AgentState) RestoreAdam(opt *nn.Adam, n *nn.Network, role string) (err error) {
	var s *nn.AdamState
	if raw, ok := st.Opts[role]; ok {
		err = json.Unmarshal(raw, &s)
	}
	if err == nil {
		err = opt.SetStateFor(n, s)
	}
	if err != nil {
		return fmt.Errorf("ckpt: %s optimizer %q: %w", st.Algo, role, err)
	}
	return nil
}

// Acting is the DeployFunc of an algorithm acting with the named role: it
// decodes that network alone, mapping StateDim to ActionDim outputs (to a
// [mean, log-std] head of twice that with squash).
func Acting(role string, squash bool) DeployFunc {
	return func(st *AgentState) (*rl.DeployedPolicy, error) {
		out := st.ActionDim
		if squash {
			out *= 2
		}
		n, err := st.NetDims(role, st.StateDim, out)
		if err != nil {
			return nil, err
		}
		return rl.NewDeployedPolicy(n, squash), nil
	}
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
	if c.Format != Format {
		return fmt.Errorf("ckpt: format %q, want %q", c.Format, Format)
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
		// A field of the wrong type leaves the others decoded, so a file of
		// another format (v2's RNG was an object) is named by Validate.
		if c.Format == "" || c.Format == Format {
			return nil, fmt.Errorf("ckpt: decode: %w", err)
		}
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

// RestoreFunc rebuilds a trainable agent from fresh decodes of its
// snapshot's roles, so one snapshot restores into many independent agents.
type RestoreFunc func(*AgentState) (rl.Agent, error)

// DeployFunc builds a snapshot's acting policy alone (see Deploy).
type DeployFunc func(*AgentState) (*rl.DeployedPolicy, error)

type algorithm struct {
	restore RestoreFunc
	deploy  DeployFunc
}

// registry is written only from package init (Register).
var registry = map[string]algorithm{}

// Register installs the restore and deploy functions for an algorithm
// name. The algorithm packages call it from init, mirroring image-format
// registration; importing an algorithm package makes its checkpoints
// loadable.
func Register(algo string, restore RestoreFunc, deploy DeployFunc) {
	if _, dup := registry[algo]; dup {
		panic(fmt.Sprintf("ckpt: duplicate registration for %q", algo))
	}
	registry[algo] = algorithm{restore: restore, deploy: deploy}
}

func lookup(algo string) (algorithm, error) {
	a, ok := registry[algo]
	if !ok {
		return a, fmt.Errorf("ckpt: no restore registered for algorithm %q (is its package imported?)", algo)
	}
	return a, nil
}

// RestoreAgent rebuilds one trainable agent from its snapshot, dispatching
// on the algorithm name.
func RestoreAgent(st *AgentState) (rl.Agent, error) {
	a, err := lookup(st.Algo)
	if err != nil {
		return nil, err
	}
	return a.restore(st)
}

// Deploy builds one agent's acting policy from its snapshot, dispatching on
// the algorithm name: the actor (DDPG, SAC) or the Gaussian policy's mean
// network (PPO, TRPO, VPG), and nothing a trainer alone needs. It acts
// bit-identically to RestoreAgent's agent.
func Deploy(st *AgentState) (*rl.DeployedPolicy, error) {
	a, err := lookup(st.Algo)
	if err != nil {
		return nil, err
	}
	return a.deploy(st)
}
