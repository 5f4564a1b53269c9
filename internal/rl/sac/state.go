package sac

import (
	"encoding/json"
	"fmt"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// AlgoName is the checkpoint algorithm identifier.
const AlgoName = "sac"

func init() {
	ckpt.Register(AlgoName, func(st *ckpt.AgentState) (rl.Agent, error) { return Restore(st) },
		ckpt.Acting("actor", true))
}

var _ ckpt.Snapshotter = (*Agent)(nil)

// Snapshot captures the agent's full training state: the squashed-Gaussian
// actor head, twin critics and their targets, the three optimizers' Adam
// moments, the RNG cursor, and optionally the replay buffer.
func (a *Agent) Snapshot(opts ckpt.SnapshotOptions) (*ckpt.AgentState, error) {
	cfg, err := json.Marshal(a.cfg)
	if err != nil {
		return nil, fmt.Errorf("sac: snapshot config: %w", err)
	}
	nets, moments, err := ckpt.EncodeRoles(map[string]*nn.Network{
		"actor":     a.actor,
		"q1":        a.q1,
		"q2":        a.q2,
		"q1-target": a.q1T,
		"q2-target": a.q2T,
	}, map[string]*nn.AdamState{
		"actor": a.actorOpt.StateFor(a.actor),
		"q1":    a.q1Opt.StateFor(a.q1),
		"q2":    a.q2Opt.StateFor(a.q2),
	})
	if err != nil {
		return nil, fmt.Errorf("sac: snapshot: %w", err)
	}
	st := &ckpt.AgentState{
		Algo:      AlgoName,
		StateDim:  a.stateDim,
		ActionDim: a.actionDim,
		Config:    cfg,
		Nets:      nets,
		Opts:      moments,
		RNG:       ckpt.RNGState{Seed: a.src.SeedValue(), Calls: a.src.Calls()},
	}
	if opts.IncludeReplay {
		rs := a.replay.State()
		st.Replay = &rs
	}
	return st, nil
}

// Restore rebuilds a SAC agent from a snapshot, decoding every role afresh.
// As for DDPG, a snapshot that would restore but not train is an error.
func Restore(st *ckpt.AgentState) (*Agent, error) {
	if st.Algo != AlgoName {
		return nil, fmt.Errorf("sac: snapshot is for %q", st.Algo)
	}
	var cfg Config
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return nil, fmt.Errorf("sac: snapshot config: %w", err)
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
		q1Opt:     nn.NewAdam(cfg.CriticLR),
		q2Opt:     nn.NewAdam(cfg.CriticLR),
		stateDim:  st.StateDim,
		actionDim: st.ActionDim,
	}
	var err error
	if a.actor, err = st.NetDims("actor", st.StateDim, 2*st.ActionDim); err != nil {
		return nil, err
	}
	a.DeployedPolicy = rl.NewDeployedPolicy(a.actor, true)
	if a.q1, err = st.NetDims("q1", st.StateDim+st.ActionDim, 1); err != nil {
		return nil, err
	}
	if a.q2, err = st.NetDims("q2", st.StateDim+st.ActionDim, 1); err != nil {
		return nil, err
	}
	if a.q1T, err = st.NetLike("q1-target", a.q1); err != nil {
		return nil, err
	}
	if a.q2T, err = st.NetLike("q2-target", a.q2); err != nil {
		return nil, err
	}
	if err := st.RestoreAdam(a.actorOpt, a.actor, "actor"); err != nil {
		return nil, err
	}
	if err := st.RestoreAdam(a.q1Opt, a.q1, "q1"); err != nil {
		return nil, err
	}
	if err := st.RestoreAdam(a.q2Opt, a.q2, "q2"); err != nil {
		return nil, err
	}
	if a.replay, err = st.RestoreReplay(cfg.ReplayCapacity); err != nil {
		return nil, err
	}
	return a, nil
}
