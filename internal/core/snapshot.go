package core

import (
	"fmt"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"
)

// Snapshot captures the system's trained agents as a full-fidelity
// checkpoint — networks, optimizer moments, generator state and, with
// opts.IncludeReplay, the replay buffer — so a restored system acts and
// resumes training bitwise identically. Baselines have nothing to snapshot.
func (s *System) Snapshot(opts ckpt.SnapshotOptions) (*ckpt.Checkpoint, error) {
	if !s.cfg.Algo.IsLearning() {
		return nil, fmt.Errorf("core: %v has no trainable agents to checkpoint", s.cfg.Algo)
	}
	if !s.trained || len(s.agents) == 0 {
		return nil, fmt.Errorf("core: Snapshot before Train/SetAgents")
	}
	hash, err := trainingHash(s.cfg)
	if err != nil {
		return nil, err
	}
	c := &ckpt.Checkpoint{
		Format:     ckpt.Format,
		Algorithm:  s.cfg.Algo.String(),
		ConfigHash: hash,
		Seed:       s.cfg.Seed,
		TrainSteps: s.cfg.TrainSteps,
	}
	// One shared agent deployed to every RA collapses to a single entry.
	shared := true
	for _, a := range s.agents[1:] {
		if a != s.agents[0] {
			shared = false
			break
		}
	}
	agents := s.agents
	if shared {
		agents = s.agents[:1]
	}
	c.Shared = shared && s.cfg.NumRAs > 1
	for j, a := range agents {
		snap, ok := a.(ckpt.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("core: RA %d agent %T cannot be checkpointed (no Snapshot method)", j, a)
		}
		st, err := snap.Snapshot(opts)
		if err != nil {
			return nil, fmt.Errorf("core: RA %d: %w", j, err)
		}
		c.Agents = append(c.Agents, st)
	}
	return c, nil
}

// Deployment is a checkpoint's acting policies, built once (ckpt.Deploy
// per agent) and shared read-only by every system Deploy installs it in.
type Deployment struct {
	c        *ckpt.Checkpoint
	policies []rl.Agent
}

// DeployCheckpoint builds the acting policy of each of c's agents.
func DeployCheckpoint(c *ckpt.Checkpoint) (*Deployment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{c: c, policies: make([]rl.Agent, len(c.Agents))}
	for j, st := range c.Agents {
		p, err := ckpt.Deploy(st)
		if err != nil {
			return nil, fmt.Errorf("core: agent %d: %w", j, err)
		}
		d.policies[j] = p
	}
	return d, nil
}

// Deploy installs a deployment's shared policies in place of Train, after
// checkCheckpoint's checks; the system then runs but holds no trainer to
// snapshot.
func (s *System) Deploy(d *Deployment) error {
	if err := s.checkCheckpoint(d.c); err != nil {
		return err
	}
	return s.SetAgents(d.policies)
}

// checkCheckpoint is what Deploy requires of a checkpoint: a
// valid file for this system's algorithm, holding one agent or one per
// RA, each sized for its RA's environment.
func (s *System) checkCheckpoint(c *ckpt.Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Algorithm != "" && c.Algorithm != s.cfg.Algo.String() {
		return fmt.Errorf("core: checkpoint is for %s, system runs %s", c.Algorithm, s.cfg.Algo)
	}
	if len(c.Agents) != 1 && len(c.Agents) != s.cfg.NumRAs {
		return fmt.Errorf("core: checkpoint has %d agents, system has %d RAs (want 1 or %d)",
			len(c.Agents), s.cfg.NumRAs, s.cfg.NumRAs)
	}
	for j, st := range c.Agents {
		env := s.envs[j]
		if st.StateDim != env.StateDim() || st.ActionDim != env.ActionDim() {
			return fmt.Errorf("core: RA %d checkpoint agent is %dx%d, environment needs %dx%d",
				j, st.StateDim, st.ActionDim, env.StateDim(), env.ActionDim())
		}
	}
	return nil
}
