package ddpg

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
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

// A snapshot that restores must train: every malformed case below once
// restored with a nil error and panicked (or trained on stale rows) at the
// first Update. Restore must reject each with an error naming what is wrong.
func TestRestoreRejectsUntrainable(t *testing.T) {
	const sd, ad = 2, 3
	cfg := resumeConfig()
	agent, err := New(sd, ad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := rltest.NewTargetEnv(mathutil.NewRNG(5), sd, ad, 20)
	drive(t, agent, env, env.Reset(), cfg.WarmupSteps+5)
	good, err := agent.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := json.Marshal(nn.NewMLP(mathutil.NewRNG(1), sd+ad,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU}, nn.LayerSpec{Out: 1, Act: nn.ActIdentity}))
	if err != nil {
		t.Fatal(err)
	}
	config := func(edit func(*Config)) func(*ckpt.AgentState) {
		return func(st *ckpt.AgentState) {
			c := cfg
			edit(&c)
			st.Config, _ = json.Marshal(c)
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*ckpt.AgentState)
	}{
		{"critic is the actor", "critic network is 2x3, want 5x1", func(st *ckpt.AgentState) {
			st.Nets["critic"] = st.Nets["actor"]
			delete(st.Opts, "critic") // no moments to mismatch: as a fresh agent's snapshot
		}},
		{"batch size -1", "invalid config", config(func(c *Config) { c.BatchSize = -1 })},
		{"hidden 0", "invalid config", config(func(c *Config) { c.Hidden = 0 })},
		{"replay capacity 0", "invalid config", config(func(c *Config) { c.ReplayCapacity = 0 })},
		{"actor target is the critic", "actor-target network", func(st *ckpt.AgentState) { st.Nets["actor-target"] = st.Nets["critic"] }},
		{"critic target a layer short", "critic-target network", func(st *ckpt.AgentState) { st.Nets["critic-target"] = shallow }},
		{"short state", "replay transition 3", func(st *ckpt.AgentState) { tr := &st.Replay.Transitions[3]; tr.State = tr.State[:1] }},
		{"long next state", "replay transition 0", func(st *ckpt.AgentState) { tr := &st.Replay.Transitions[0]; tr.NextState = append(tr.NextState, 0) }},
		{"short action", "replay transition 7", func(st *ckpt.AgentState) { tr := &st.Replay.Transitions[7]; tr.Action = tr.Action[:ad-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st ckpt.AgentState
			if err := json.Unmarshal(wire, &st); err != nil {
				t.Fatal(err)
			}
			tc.edit(&st)
			_, err := Restore(&st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error %v, want one containing %q", err, tc.want)
			}
		})
	}

	// The unedited snapshot restores and trains.
	var st ckpt.AgentState
	if err := json.Unmarshal(wire, &st); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(&st)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Update(); err != nil {
		t.Fatal(err)
	}
}
