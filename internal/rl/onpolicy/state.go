package onpolicy

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
			ckpt.Acting("policy-mean", false))
	}
}

var _ ckpt.Snapshotter = (*Agent)(nil)

// Snapshot captures the agent's full training state: the Gaussian policy
// (mean network and log-stds), the value network, the optimizers' Adam
// moments (TRPO has none for the policy) and the generator's state. Training is
// on-policy, so there is no replay to include.
func (a *Agent) Snapshot(ckpt.SnapshotOptions) (*ckpt.AgentState, error) {
	cfg, err := json.Marshal(a.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: snapshot config: %w", a.cfg.Technique, err)
	}
	moments := map[string]*nn.AdamState{"value": a.vopt.StateFor(a.value)}
	if a.popt != nil {
		moments["policy-mean"] = a.popt.StateFor(a.policy.mean)
	}
	nets, opts := ckpt.EncodeRoles(map[string]*nn.Network{
		"policy-mean": a.policy.mean,
		"value":       a.value,
	}, moments)
	rng, err := a.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("%s: snapshot generator: %w", a.cfg.Technique, err)
	}
	return &ckpt.AgentState{
		Algo:      a.cfg.Technique,
		StateDim:  a.policy.mean.InputDim(),
		ActionDim: len(a.policy.logStd),
		Config:    cfg,
		Nets:      nets,
		Opts:      opts,
		RNG:       rng,
		LogStd:    append([]float64(nil), a.policy.logStd...),
	}, nil
}

// Restore rebuilds an agent of the snapshot's technique, decoding every
// role afresh. A snapshot that would restore but not train — New's config
// checks failing, a network or log-std vector of the wrong shape — is an
// error here, not a panic at the first Train or Act.
func Restore(st *ckpt.AgentState) (*Agent, error) {
	cfg := Config{Technique: st.Algo}
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return nil, fmt.Errorf("%s: snapshot config: %w", st.Algo, err)
	}
	if err := cfg.check(st.StateDim, st.ActionDim); err != nil {
		return nil, err
	}
	mean, err := st.NetDims("policy-mean", st.StateDim, st.ActionDim)
	if err != nil {
		return nil, err
	}
	value, err := st.NetDims("value", st.StateDim, 1)
	if err != nil {
		return nil, err
	}
	if len(st.LogStd) != st.ActionDim {
		return nil, fmt.Errorf("%s: snapshot has %d log-stds, want %d", st.Algo, len(st.LogStd), st.ActionDim)
	}
	policy := &gaussianPolicy{mean: mean, logStd: append([]float64(nil), st.LogStd...), logStdGrad: make([]float64, st.ActionDim)}
	a := newAgent(cfg, policy, value)
	if err := a.pcg.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("%s: snapshot generator: %w", st.Algo, err)
	}
	if a.popt != nil {
		if err := st.RestoreAdam(a.popt, mean, "policy-mean"); err != nil {
			return nil, err
		}
	}
	if err := st.RestoreAdam(a.vopt, value, "value"); err != nil {
		return nil, err
	}
	return a, nil
}
