package onpolicy

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl/rltest"
)

// smallConfig is a technique's defaults at test scale.
func smallConfig(tech string) Config {
	cfg := DefaultConfig(tech)
	cfg.Hidden, cfg.Horizon, cfg.MinibatchSz, cfg.Epochs, cfg.FisherSamples, cfg.ValueEpochs = 8, 32, 8, 2, 8, 2
	return cfg
}

// snapshotWire is the file bytes of a one-agent checkpoint of a.
func snapshotWire(t *testing.T, a *Agent) []byte {
	t.Helper()
	st, err := a.Snapshot(ckpt.SnapshotOptions{})
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

// A snapshot that restores must train and act: each malformed case below
// once restored with a nil error and panicked in the first Train or Act.
// Restore must reject each with an error naming what is wrong.
func TestRestoreRejectsUntrainable(t *testing.T) {
	const sd, ad = 5, 3
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			cfg := smallConfig(tech)
			agent, err := New(sd, ad, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := agent.Train(rltest.NewTargetEnv(mathutil.NewRNG(5), sd, ad, 20), cfg.Horizon); err != nil {
				t.Fatal(err)
			}
			wire := snapshotWire(t, agent)
			nets, _ := ckpt.EncodeRoles(map[string]*nn.Network{"value": newValueNet(mathutil.NewRNG(1), 2, cfg.Hidden)}, nil)
			narrow := nets["value"]
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
				ppoOnly    bool
			}{
				{"value net 2 wide", "value network is 2x1, want 5x1", func(st *ckpt.AgentState) {
					st.Nets["value"] = narrow
					delete(st.Opts, "value") // no moments to mismatch: as a fresh agent's snapshot
				}, false},
				{"value net is the policy", "value network is 5x3, want 5x1", func(st *ckpt.AgentState) {
					st.Nets["value"] = st.Nets["policy-mean"]
					delete(st.Opts, "value")
				}, false},
				{"policy is the narrow value net", "policy-mean network is 2x1, want 5x3", func(st *ckpt.AgentState) {
					st.Nets["policy-mean"] = narrow
					delete(st.Opts, "policy-mean")
				}, false},
				{"short log-stds", "2 log-stds, want 3", func(st *ckpt.AgentState) { st.LogStd = st.LogStd[:2] }, false},
				{"horizon 0", "invalid config", config(func(c *Config) { c.Horizon = 0 }), false},
				{"hidden 0", "invalid config", config(func(c *Config) { c.Hidden = 0 }), false},
				{"unknown algorithm", "unknown technique", func(st *ckpt.AgentState) { st.Algo = "a2c" }, false},
				{"generator state cut short", "snapshot generator", func(st *ckpt.AgentState) { st.RNG = st.RNG[:10] }, false},
				{"minibatch 0", "invalid config", config(func(c *Config) { c.MinibatchSz = 0 }), true},
			} {
				if tc.ppoOnly && tech != PPO {
					continue
				}
				st := decodeAgent(t, wire)
				tc.edit(st)
				if _, err := Restore(st); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: Restore error %v, want one containing %q", tc.name, err, tc.want)
				}
			}

			// The unedited snapshot restores and trains.
			resumed, err := Restore(decodeAgent(t, wire))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Train(rltest.NewTargetEnv(mathutil.NewRNG(6), sd, ad, 20), cfg.Horizon); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeTrainEquivalence is the exact-resume property for each
// technique: training N steps, snapshotting, restoring through the checkpoint
// file and ckpt's registry, and training M more lands on the same
// snapshot bytes as one uninterrupted N+M-step run. N and M are whole
// horizons, and both runs step identically seeded environments.
func TestResumeTrainEquivalence(t *testing.T) {
	const sd, ad = 3, 2
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			cfg := smallConfig(tech)
			n, m := 3*cfg.Horizon, 2*cfg.Horizon
			env := func() *rltest.TargetEnv { return rltest.NewTargetEnv(mathutil.NewRNG(42), sd, ad, 20) }

			straight, err := New(sd, ad, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := straight.Train(env(), n+m); err != nil {
				t.Fatal(err)
			}

			first, err := New(sd, ad, cfg)
			if err != nil {
				t.Fatal(err)
			}
			envB := env()
			if err := first.Train(envB, n); err != nil {
				t.Fatal(err)
			}
			restored, err := ckpt.RestoreAgent(decodeAgent(t, snapshotWire(t, first)))
			if err != nil {
				t.Fatal(err)
			}
			resumed, ok := restored.(*Agent)
			if !ok {
				t.Fatalf("restored a %T", restored)
			}
			if err := resumed.Train(envB, m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshotWire(t, straight), snapshotWire(t, resumed)) {
				t.Error("snapshot after resume differs from the uninterrupted run's")
			}
		})
	}
}
