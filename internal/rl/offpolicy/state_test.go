package offpolicy

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

// resumeConfig is a technique's defaults at test scale.
func resumeConfig(tech string) Config {
	cfg := DefaultConfig(tech)
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps = 8, 16, 30
	cfg.ReplayCapacity = 100 // small enough that eviction happens mid-test
	if tech == DDPG {
		cfg.NoiseDecay = 0.99
	}
	return cfg
}

// drive runs the interaction loop for steps, starting from state, and
// returns the environment state reached. Unlike Agent.Train it does not
// Reset the environment on entry, so a run can be split into segments
// without disturbing the environment's stream.
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

// snapshotWire is the file bytes of a one-agent checkpoint of a, with its
// replay buffer.
func snapshotWire(t *testing.T, a *Agent) []byte {
	t.Helper()
	st, err := a.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, &ckpt.Checkpoint{Format: ckpt.Format, Agents: []*ckpt.AgentState{st}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAgent decodes the one agent of snapshotWire's bytes, afresh.
func decodeAgent(t *testing.T, wire []byte) *ckpt.AgentState {
	t.Helper()
	c, err := ckpt.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	return c.Agents[0]
}

// TestResumeTrainEquivalence is the exact-resume property: training N
// steps, snapshotting (with replay), restoring through the checkpoint file,
// and training M more steps lands on a byte-identical snapshot (every
// network, optimizer moment, noise schedule, RNG cursor and the replay) to
// one uninterrupted N+M-step run.
func TestResumeTrainEquivalence(t *testing.T) {
	const sd, ad, N, M = 3, 2, 120, 80
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			cfg := resumeConfig(tech)
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
			resumed, err := Restore(decodeAgent(t, snapshotWire(t, agentB)))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, resumed, envB, state, M)
			if !bytes.Equal(snapshotWire(t, resumed), snapshotWire(t, agentA)) {
				t.Error("resumed training state diverged from the uninterrupted run")
			}
		})
	}
}

// TestSnapshotIsPointInTime verifies that training after Snapshot leaves
// the captured state untouched.
func TestSnapshotIsPointInTime(t *testing.T) {
	const sd, ad = 3, 2
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			env := rltest.NewTargetEnv(mathutil.NewRNG(9), sd, ad, 20)
			agent, err := New(sd, ad, resumeConfig(tech))
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
		})
	}
}

// A snapshot that restores must train: every malformed case below once
// restored with a nil error and panicked (or trained on stale rows) at the
// first Update. Restore must reject each with an error naming what is wrong.
func TestRestoreRejectsUntrainable(t *testing.T) {
	const sd, ad = 2, 3
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			cfg := resumeConfig(tech)
			agent, err := New(sd, ad, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := agent.Train(rltest.NewTargetEnv(mathutil.NewRNG(5), sd, ad, 20), cfg.WarmupSteps+5); err != nil {
				t.Fatal(err)
			}
			wire := snapshotWire(t, agent)
			nets, _ := ckpt.EncodeRoles(map[string]*nn.Network{"shallow": nn.NewMLP(mathutil.NewRNG(1), sd+ad,
				nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU}, nn.LayerSpec{Out: 1, Act: nn.ActIdentity})}, nil)
			shallow := nets["shallow"]
			// transition edits row i of the stored replay, state | action |
			// reward | next state | done, and encodes the ring again.
			const w = 2*sd + ad + 2
			transition := func(i int, edit func(row []float64) []float64) func(*ckpt.AgentState) {
				return func(st *ckpt.AgentState) {
					rows, err := st.Replay.Rows(sd, ad)
					if err != nil {
						t.Fatal(err)
					}
					row := edit(slices.Clone(rows[i*w : (i+1)*w]))
					st.Replay = ckpt.EncodeReplay(st.Replay.Capacity, st.Replay.Next, slices.Concat(rows[:i*w], row, rows[(i+1)*w:]))
				}
			}
			config := func(edit func(*Config)) func(*ckpt.AgentState) {
				return func(st *ckpt.AgentState) {
					c := cfg
					edit(&c)
					st.Config, _ = json.Marshal(c)
				}
			}
			// actorAs puts the actor where a critic belongs, without the
			// critic's moments to mismatch: as a fresh agent's snapshot.
			actorAs := func(role string) func(*ckpt.AgentState) {
				return func(st *ckpt.AgentState) {
					st.Nets[role] = st.Nets["actor"]
					delete(st.Opts, role)
				}
			}
			for _, tc := range []struct {
				tech, name, want string // tech "" for both techniques
				edit             func(*ckpt.AgentState)
			}{
				{DDPG, "critic is the actor", "critic network is 2x3, want 5x1", actorAs("critic")},
				{DDPG, "actor target is the critic", "actor-target network", func(st *ckpt.AgentState) { st.Nets["actor-target"] = st.Nets["critic"] }},
				{DDPG, "critic target a layer short", "critic-target network", func(st *ckpt.AgentState) { st.Nets["critic-target"] = shallow }},
				{SAC, "q1 is the actor", "q1 network is 2x6, want 5x1", actorAs("q1")},
				{SAC, "q2 is the actor", "q2 network is 2x6, want 5x1", actorAs("q2")},
				{SAC, "q1 target is the actor", "q1-target network", func(st *ckpt.AgentState) { st.Nets["q1-target"] = st.Nets["actor"] }},
				{SAC, "q2 target a layer short", "q2-target network", func(st *ckpt.AgentState) { st.Nets["q2-target"] = shallow }},
				{"", "batch size -1", "invalid config", config(func(c *Config) { c.BatchSize = -1 })},
				{"", "hidden 0", "invalid config", config(func(c *Config) { c.Hidden = 0 })},
				{"", "replay capacity 0", "invalid config", config(func(c *Config) { c.ReplayCapacity = 0 })},
				{"", "generator state cut short", "snapshot generator", func(st *ckpt.AgentState) { st.RNG = st.RNG[:10] }},
				{"", "short state", "no whole number of 9-value transitions", transition(3, func(r []float64) []float64 { return slices.Delete(r, 1, 2) })},
				{"", "long next state", "no whole number of 9-value transitions", transition(0, func(r []float64) []float64 { return slices.Insert(r, w-1, 0) })},
				{"", "short action", "no whole number of 9-value transitions", transition(7, func(r []float64) []float64 { return slices.Delete(r, sd, sd+1) })},
				{"", "done flag one half", "transition 2 has done flag 0.5", transition(2, func(r []float64) []float64 { r[w-1] = 0.5; return r })},
				{"", "cursor on a partial ring", "no FIFO ring", func(st *ckpt.AgentState) { st.Replay.Next = 1 }},
				{"", "more transitions than capacity", "no FIFO ring", func(st *ckpt.AgentState) { st.Replay.Capacity = 10 }},
			} {
				if tc.tech != "" && tc.tech != tech {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					st := decodeAgent(t, wire)
					tc.edit(st)
					_, err := Restore(st)
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("Restore error %v, want one containing %q", err, tc.want)
					}
				})
			}

			// The unedited snapshot restores and trains.
			resumed, err := Restore(decodeAgent(t, wire))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Update(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
