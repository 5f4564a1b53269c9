package ddpg

import (
	"encoding/json"
	"fmt"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// AlgoName is the checkpoint algorithm identifier.
const AlgoName = "ddpg"

func init() {
	ckpt.Register(AlgoName, func(st *ckpt.AgentState) (rl.Agent, error) { return Restore(st) },
		ckpt.Acting("actor", false))
}

var _ ckpt.Snapshotter = (*Agent)(nil)

// Snapshot captures the agent's full training state: actor, critic, both
// target networks, both optimizers' Adam moments, the noise schedule, the
// RNG cursor, and (when opts.IncludeReplay) the replay buffer. A restored
// agent acts bitwise identically and resumes training exactly.
func (a *Agent) Snapshot(opts ckpt.SnapshotOptions) (*ckpt.AgentState, error) {
	cfg, err := json.Marshal(a.cfg)
	if err != nil {
		return nil, fmt.Errorf("ddpg: snapshot config: %w", err)
	}
	nets, moments, err := ckpt.EncodeRoles(map[string]*nn.Network{
		"actor":         a.actor,
		"critic":        a.critic,
		"actor-target":  a.actorTarget,
		"critic-target": a.criticTarget,
	}, map[string]*nn.AdamState{
		"actor":  a.actorOpt.StateFor(a.actor),
		"critic": a.criticOpt.StateFor(a.critic),
	})
	if err != nil {
		return nil, fmt.Errorf("ddpg: snapshot: %w", err)
	}
	st := &ckpt.AgentState{
		Algo:      AlgoName,
		StateDim:  a.stateDim,
		ActionDim: a.actionDim,
		Config:    cfg,
		Nets:      nets,
		Opts:      moments,
		RNG:       ckpt.RNGState{Seed: a.src.SeedValue(), Calls: a.src.Calls()},
		NoiseStd:  a.noise.Std,
		Updates:   a.updates,
	}
	if opts.IncludeReplay {
		rs := a.replay.State()
		st.Replay = &rs
	}
	return st, nil
}

// Restore rebuilds a DDPG agent from a snapshot. Every network and buffer
// is decoded afresh, so one snapshot restores into any number of
// independent agents. A snapshot that would restore but not train — New's
// config checks failing, a network or target of the wrong shape, a replay
// transition of the wrong width — is an error here, not a panic at the
// first update.
func Restore(st *ckpt.AgentState) (*Agent, error) {
	if st.Algo != AlgoName {
		return nil, fmt.Errorf("ddpg: snapshot is for %q", st.Algo)
	}
	var cfg Config
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return nil, fmt.Errorf("ddpg: snapshot config: %w", err)
	}
	if err := cfg.check(st.StateDim, st.ActionDim); err != nil {
		return nil, err
	}
	rng, src := mathutil.ReplayRNG(st.RNG.Seed, st.RNG.Calls)
	a := &Agent{
		cfg:       cfg,
		rng:       rng,
		src:       src,
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
		noise:     &rl.GaussianNoise{Std: st.NoiseStd, Decay: cfg.NoiseDecay, Min: cfg.NoiseMin},
		stateDim:  st.StateDim,
		actionDim: st.ActionDim,
		updates:   st.Updates,
	}
	var err error
	if a.actor, err = st.NetDims("actor", st.StateDim, st.ActionDim); err != nil {
		return nil, err
	}
	a.DeployedPolicy = rl.NewDeployedPolicy(a.actor, false)
	if a.critic, err = st.NetDims("critic", st.StateDim+st.ActionDim, 1); err != nil {
		return nil, err
	}
	if a.actorTarget, err = st.NetLike("actor-target", a.actor); err != nil {
		return nil, err
	}
	if a.criticTarget, err = st.NetLike("critic-target", a.critic); err != nil {
		return nil, err
	}
	if err := st.RestoreAdam(a.actorOpt, a.actor, "actor"); err != nil {
		return nil, err
	}
	if err := st.RestoreAdam(a.criticOpt, a.critic, "critic"); err != nil {
		return nil, err
	}
	if a.replay, err = st.RestoreReplay(cfg.ReplayCapacity); err != nil {
		return nil, err
	}
	return a, nil
}
