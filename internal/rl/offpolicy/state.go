package offpolicy

import (
	"encoding/json"
	"fmt"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

func init() {
	for _, name := range techniques {
		ckpt.Register(name, func(st *ckpt.AgentState) (rl.Agent, error) { return Restore(st) },
			"actor", name == SAC)
	}
}

var _ ckpt.Snapshotter = (*Agent)(nil)

// Snapshot captures the agent's full training state: the actor, the
// critics, every target network, the optimizers' Adam moments, DDPG's
// noise schedule, the generator's state, and (when
// opts.IncludeReplay) the replay buffer. A restored agent acts bitwise
// identically and resumes training exactly.
func (a *Agent) Snapshot(opts ckpt.SnapshotOptions) (*ckpt.AgentState, error) {
	tech := a.cfg.Technique
	cfg, err := json.Marshal(a.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: snapshot config: %w", tech, err)
	}
	nets := map[string]*nn.Network{"actor": a.actor}
	moments := map[string]*nn.AdamState{"actor": a.actorOpt.StateFor(a.actor)}
	if a.actorTarget != nil {
		nets["actor-target"] = a.actorTarget
	}
	for c, cr := range a.critics {
		role := criticRoles[tech][c]
		nets[role.q], nets[role.target], moments[role.q] = cr.q, cr.target, cr.opt.StateFor(cr.q)
	}
	st := &ckpt.AgentState{Algo: tech, StateDim: a.stateDim, ActionDim: a.actionDim, Config: cfg, NoiseStd: a.noiseStd}
	if st.RNG, err = a.pcg.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("%s: snapshot generator: %w", tech, err)
	}
	st.Nets, st.Opts = ckpt.EncodeRoles(nets, moments)
	if opts.IncludeReplay {
		st.Replay = a.replay.State()
	}
	return st, nil
}

// Restore rebuilds a DDPG or SAC agent from a snapshot. Every network and
// buffer is decoded afresh, so one snapshot restores into any number of
// independent agents. A snapshot that would restore but not train — New's
// config checks failing, a network or target of the wrong shape, a replay
// transition of the wrong width — is an error here, not a panic at the
// first update.
func Restore(st *ckpt.AgentState) (*Agent, error) {
	cfg := Config{Technique: st.Algo}
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return nil, fmt.Errorf("%s: snapshot config: %w", st.Algo, err)
	}
	if err := cfg.check(st.StateDim, st.ActionDim); err != nil {
		return nil, err
	}
	a, err := build(cfg, st.StateDim, st.ActionDim, func(role string, in int, head nn.LayerSpec) (*nn.Network, error) {
		return st.NetDims(role, in, head.Out)
	}, st.NetLike)
	if err != nil {
		return nil, err
	}
	if err := a.pcg.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("%s: snapshot generator: %w", st.Algo, err)
	}
	a.noiseStd = st.NoiseStd
	if err := st.RestoreAdam(a.actorOpt, a.actor, "actor"); err != nil {
		return nil, err
	}
	for c, cr := range a.critics {
		if err := st.RestoreAdam(cr.opt, cr.q, criticRoles[cfg.Technique][c].q); err != nil {
			return nil, err
		}
	}
	if a.replay, err = restoreReplay(st, cfg.ReplayCapacity); err != nil {
		return nil, err
	}
	return a, nil
}
