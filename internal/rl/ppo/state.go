package ppo

import (
	"encoding/json"
	"fmt"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// AlgoName is the checkpoint algorithm identifier.
const AlgoName = "ppo"

func init() {
	ckpt.Register(AlgoName, func(st *ckpt.AgentState) (rl.Agent, error) { return Restore(st) },
		ckpt.Acting("policy-mean", false))
}

var _ ckpt.Snapshotter = (*Agent)(nil)

// Snapshot captures the agent's full training state: the Gaussian policy
// (mean network and log-stds), the value network, both optimizers' Adam
// moments, and the RNG cursor. PPO is on-policy, so opts.IncludeReplay is
// a no-op.
func (a *Agent) Snapshot(ckpt.SnapshotOptions) (*ckpt.AgentState, error) {
	cfg, err := json.Marshal(a.cfg)
	if err != nil {
		return nil, fmt.Errorf("ppo: snapshot config: %w", err)
	}
	nets, moments, err := ckpt.EncodeRoles(map[string]*nn.Network{
		"policy-mean": a.policy.Mean,
		"value":       a.value,
	}, map[string]*nn.AdamState{
		"policy-mean": a.popt.StateFor(a.policy.Mean),
		"value":       a.vopt.StateFor(a.value),
	})
	if err != nil {
		return nil, fmt.Errorf("ppo: snapshot: %w", err)
	}
	return &ckpt.AgentState{
		Algo:      AlgoName,
		StateDim:  a.policy.Mean.InputDim(),
		ActionDim: a.policy.ActionDim(),
		Config:    cfg,
		Nets:      nets,
		Opts:      moments,
		RNG:       ckpt.RNGState{Seed: a.src.SeedValue(), Calls: a.src.Calls()},
		LogStd:    append([]float64(nil), a.policy.LogStd...),
	}, nil
}

// Restore rebuilds a PPO agent from a snapshot, decoding every role afresh.
func Restore(st *ckpt.AgentState) (*Agent, error) {
	if st.Algo != AlgoName {
		return nil, fmt.Errorf("ppo: snapshot is for %q", st.Algo)
	}
	var cfg Config
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return nil, fmt.Errorf("ppo: snapshot config: %w", err)
	}
	if cfg.Horizon <= 0 || cfg.MinibatchSz <= 0 {
		return nil, fmt.Errorf("ppo: invalid snapshot config %+v", cfg)
	}
	mean, err := st.Net("policy-mean")
	if err != nil {
		return nil, err
	}
	value, err := st.Net("value")
	if err != nil {
		return nil, err
	}
	policy, err := rl.RestoreGaussianPolicy(mean, append([]float64(nil), st.LogStd...))
	if err != nil {
		return nil, fmt.Errorf("ppo: %w", err)
	}
	rng, src := mathutil.ReplayRNG(st.RNG.Seed, st.RNG.Calls)
	a := &Agent{
		DeployedPolicy: rl.NewDeployedPolicy(mean, false),
		cfg:            cfg,
		rng:            rng,
		src:            src,
		policy:         policy,
		value:          value,
		popt:           nn.NewAdam(cfg.PolicyLR),
		vopt:           nn.NewAdam(cfg.ValueLR),
	}
	if err := st.RestoreAdam(a.popt, mean, "policy-mean"); err != nil {
		return nil, err
	}
	if err := st.RestoreAdam(a.vopt, value, "value"); err != nil {
		return nil, err
	}
	return a, nil
}
