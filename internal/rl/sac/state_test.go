package sac

import (
	"encoding/json"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl/rltest"
)

// As for DDPG: a snapshot that restores must train, so each malformed case
// below is an error from Restore, not a panic at the first Update.
func TestRestoreRejectsUntrainable(t *testing.T) {
	const sd, ad = 2, 3
	cfg := DefaultConfig()
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 16, 30, 100
	agent, err := New(sd, ad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Train(rltest.NewTargetEnv(mathutil.NewRNG(5), sd, ad, 20), cfg.WarmupSteps+5); err != nil {
		t.Fatal(err)
	}
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
		{"q1 is the actor", "q1 network is 2x6, want 5x1", func(st *ckpt.AgentState) {
			st.Nets["q1"] = st.Nets["actor"]
			delete(st.Opts, "q1") // no moments to mismatch: as a fresh agent's snapshot
		}},
		{"q2 is the actor", "q2 network is 2x6, want 5x1", func(st *ckpt.AgentState) {
			st.Nets["q2"] = st.Nets["actor"]
			delete(st.Opts, "q2")
		}},
		{"batch size -1", "invalid config", config(func(c *Config) { c.BatchSize = -1 })},
		{"hidden 0", "invalid config", config(func(c *Config) { c.Hidden = 0 })},
		{"replay capacity 0", "invalid config", config(func(c *Config) { c.ReplayCapacity = 0 })},
		{"q1 target is the actor", "q1-target network", func(st *ckpt.AgentState) { st.Nets["q1-target"] = st.Nets["actor"] }},
		{"q2 target a layer short", "q2-target network", func(st *ckpt.AgentState) { st.Nets["q2-target"] = shallow }},
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
