package scenario

import (
	"bytes"
	"math/rand"
	"testing"

	"edgeslice/internal/core"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

// TestResetMatchesFresh: a System that core.NewSystemFrom recycles records
// the history-log bytes core.NewSystem records, for every built-in
// scenario's compiled config at two seeds under edgeslice, taro and equal.
// Each recycled System first runs two periods of another algorithm at
// another seed, RA 0 degraded to 30 % before the second, so a reset that
// kept a PCG stream, a backlog, a capacity scale or the coordinator's state
// shows; heterogeneous-mix's constant-rate slices then draw from Poisson
// tables kept across the reset. One engine serves every run, as a sweep
// worker's does. A config of another RA or slice count is built afresh.
func TestResetMatchesFresh(t *testing.T) {
	algos := []core.Algorithm{core.AlgoEdgeSlice, core.AlgoTARO, core.AlgoEqualShare}
	exec := core.NewBatchedExecutor(2)
	compile := func(spec Spec, algo core.Algorithm, seed int64) core.Config {
		cfg, err := spec.systemConfig(algo, seed)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// build recycles prev (nil: builds afresh) for cfg and installs its
	// agents: one fixed actor for a learning algorithm.
	build := func(prev *core.System, cfg core.Config) *core.System {
		s, err := core.NewSystemFrom(prev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Algo.IsLearning() {
			err = s.Train()
		} else {
			env := s.Env(0)
			actor := nn.NewMLP(rand.New(rand.NewSource(7)), env.StateDim(),
				nn.LayerSpec{Out: 16, Act: nn.ActLeakyReLU}, nn.LayerSpec{Out: env.ActionDim(), Act: nn.ActSigmoid})
			err = s.SetAgents([]rl.Agent{rl.NewDeployedPolicy(actor, false)})
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	record := func(s *core.System, periods int) []byte {
		env := s.Env(0).Config()
		I, J, T := env.NumSlices, s.NumRAs(), env.T
		var buf bytes.Buffer
		hlog, err := core.NewHistoryLog(telemetry.NewLogWriter(&buf), I, J, T)
		if err != nil {
			t.Fatal(err)
		}
		s.SetRecording(core.RecordOptions{Log: hlog})
		if err := s.RunPeriodsInto(exec, core.NewHistory(I, J, T), periods); err != nil {
			t.Fatal(err)
		}
		if err := hlog.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range List() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			for a, algo := range algos {
				cfg := compile(spec, algo, seed)
				want := record(build(nil, cfg), spec.Periods)
				prev := build(nil, compile(spec, algos[(a+1)%len(algos)], seed+7))
				record(prev, 1)
				if err := prev.Env(0).SetCapacityScale(0.3); err != nil {
					t.Fatal(err)
				}
				record(prev, 1)
				s := build(prev, cfg)
				if s != prev {
					t.Errorf("%s seed %d %v: a config of the same shape was not reset in place", name, seed, algo)
				}
				if got := record(s, spec.Periods); !bytes.Equal(got, want) {
					t.Errorf("%s seed %d %v: the reset System's history log differs from a fresh one's", name, seed, algo)
				}
			}
		}
	}

	spec := SteadyPoisson()
	prev := build(nil, compile(spec, core.AlgoTARO, 1))
	moreRAs, fewerSlices := spec, spec
	moreRAs.NumRAs++
	fewerSlices.Slices = spec.Slices[:1]
	for _, other := range []Spec{moreRAs, fewerSlices} {
		if s := build(prev, compile(other, core.AlgoTARO, 1)); s == prev || prev.NumRAs() != spec.NumRAs {
			t.Errorf("a %d-RA %d-slice config reused a %d-RA %d-slice System", other.NumRAs, len(other.Slices), spec.NumRAs, len(spec.Slices))
		}
	}
}
