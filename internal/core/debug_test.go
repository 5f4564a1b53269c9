package core

import (
	"testing"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
)

// TestDebugTraining prints training diagnostics; run with -v for tuning.
func TestDebugTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	envCfg := netsim.DefaultExperimentConfig()
	envCfg.TrainCoordRandom = true
	env, err := netsim.New(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := offpolicy.DefaultConfig(offpolicy.DDPG)
	dcfg.Hidden = 32
	dcfg.BatchSize = 64
	dcfg.WarmupSteps = 300
	dcfg.NoiseDecay = 0.9995
	agent, err := offpolicy.New(env.StateDim(), env.ActionDim(), dcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Train in chunks, logging the mean reward of each chunk.
	state := env.Reset()
	chunk := 2000
	for c := 0; c < 6; c++ {
		var sum float64
		for i := 0; i < chunk; i++ {
			action := agent.ActExplore(state)
			next, reward, done := env.Step(action)
			sum += reward
			agent.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done})
			if err := agent.Update(); err != nil {
				t.Fatal(err)
			}
			if done {
				state = env.Reset()
			} else {
				state = next
			}
		}
		t.Logf("chunk %d: mean reward %.3f", c, sum/float64(chunk))
	}

	// Inspect the deterministic policy at characteristic states.
	cases := []struct {
		name  string
		state []float64
	}{
		{"empty queues, easy target", []float64{0, 0, -0.1, -0.1}},
		{"slice1 backlog", []float64{1.0, 0, -0.1, -0.1}},
		{"slice2 backlog", []float64{0, 1.0, -0.1, -0.1}},
		{"both backlogged", []float64{1.5, 1.5, -0.5, -0.5}},
	}
	for _, c := range cases {
		t.Logf("%-28s -> %v", c.name, fmtAction(agent.Act(c.state)))
	}

	// Deployment-mode check: run Algorithm 1 with this agent and watch the
	// queue trajectory and coordination evolution.
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetAgents([]rl.Agent{agent}); err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriods(10)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < h.Periods(); p++ {
		perf, sla, _, _ := h.Period(p)
		t.Logf("period %d: perf=%v sla=%v", p, perf, sla)
	}
	t.Logf("deployment queues RA0: %v", sys.Env(0).QueueLens())
	mp, _ := h.MeanSystemPerf(30)
	t.Logf("deployment steady-state system perf: %.1f", mp)
}

func fmtAction(a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = float64(int(v*100)) / 100
	}
	return out
}
