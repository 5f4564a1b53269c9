package ddpg

import (
	"encoding/json"
	"reflect"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

func resumeConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.BatchSize = 16
	cfg.WarmupSteps = 30
	cfg.ReplayCapacity = 100 // small enough that eviction happens mid-test
	cfg.NoiseDecay = 0.99
	return cfg
}

// drive runs the standard DDPG interaction loop for steps, starting from
// state, and returns the environment state reached. Unlike Agent.Train it
// does not Reset the environment on entry, so a run can be split into
// segments without disturbing the environment's stream.
func drive(t *testing.T, a *Agent, env rl.Env, state []float64, steps int) []float64 {
	t.Helper()
	for i := 0; i < steps; i++ {
		action := a.ActExplore(state)
		next, reward, done := env.Step(action)
		a.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done})
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
		if done {
			state = env.Reset()
		} else {
			state = next
		}
	}
	return state
}

// TestResumeTrainEquivalence is the exact-resume property: training N
// steps, snapshotting (with replay), restoring through the JSON wire form,
// and training M more steps lands on bitwise-identical parameters to one
// uninterrupted N+M-step run.
func TestResumeTrainEquivalence(t *testing.T) {
	const sd, ad, N, M = 3, 2, 120, 80
	cfg := resumeConfig()

	envA := rltest.NewTargetEnv(mathutil.NewRNG(42), sd, ad, 20)
	agentA, err := New(sd, ad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, agentA, envA, envA.Reset(), N+M)

	envB := rltest.NewTargetEnv(mathutil.NewRNG(42), sd, ad, 20)
	agentB, err := New(sd, ad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := drive(t, agentB, envB, envB.Reset(), N)

	st, err := agentB.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ckpt.AgentState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, resumed, envB, state, M)

	if agentA.updates != resumed.updates {
		t.Fatalf("update counters diverged: %d vs %d", agentA.updates, resumed.updates)
	}
	pairs := []struct {
		name string
		a, b []float64
	}{
		{"actor", agentA.actor.FlattenParams(), resumed.actor.FlattenParams()},
		{"critic", agentA.critic.FlattenParams(), resumed.critic.FlattenParams()},
		{"actor-target", agentA.actorTarget.FlattenParams(), resumed.actorTarget.FlattenParams()},
		{"critic-target", agentA.criticTarget.FlattenParams(), resumed.criticTarget.FlattenParams()},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.a, p.b) {
			t.Errorf("%s parameters diverged after resume", p.name)
		}
	}
	state = []float64{0.2, 0.4, 0.8}
	if got, want := resumed.Act(state), agentA.Act(state); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed action %v != continuous action %v", got, want)
	}
}

// TestSnapshotIsPointInTime verifies that training after Snapshot leaves
// the captured state untouched.
func TestSnapshotIsPointInTime(t *testing.T) {
	const sd, ad = 3, 2
	cfg := resumeConfig()
	env := rltest.NewTargetEnv(mathutil.NewRNG(9), sd, ad, 20)
	agent, err := New(sd, ad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := drive(t, agent, env, env.Reset(), 60)

	st, err := agent.Snapshot(ckpt.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	actor := func() []float64 {
		t.Helper()
		n, err := st.Net("actor")
		if err != nil {
			t.Fatal(err)
		}
		return n.FlattenParams()
	}
	frozen := actor()
	drive(t, agent, env, state, 60)
	if !reflect.DeepEqual(frozen, actor()) {
		t.Fatal("continuing training mutated the snapshot")
	}
}
