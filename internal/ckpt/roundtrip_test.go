package ckpt_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/rl/ppo"
	"edgeslice/internal/rl/rltest"
	"edgeslice/internal/rl/sac"
	"edgeslice/internal/rl/td3"
	"edgeslice/internal/rl/trpo"
	"edgeslice/internal/rl/vpg"
)

const (
	stateDim  = 3
	actionDim = 2
)

// trainable is what every algorithm's Agent provides.
type trainable interface {
	rl.Agent
	ckpt.Snapshotter
	Train(rl.Env, int) error
}

// algorithms builds one briefly-trained agent per training technique, so
// snapshots carry warm optimizer moments, advanced RNG cursors, and (for
// the off-policy three) non-empty replay buffers.
func algorithms(t *testing.T) map[string]trainable {
	t.Helper()
	out := map[string]trainable{}

	dcfg := ddpg.DefaultConfig()
	dcfg.Hidden, dcfg.BatchSize, dcfg.WarmupSteps, dcfg.ReplayCapacity = 8, 8, 16, 512
	dd, err := ddpg.New(stateDim, actionDim, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[ddpg.AlgoName] = dd

	tcfg := td3.DefaultConfig()
	tcfg.Hidden, tcfg.BatchSize, tcfg.WarmupSteps, tcfg.ReplayCapacity = 8, 8, 16, 512
	td, err := td3.New(stateDim, actionDim, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[td3.AlgoName] = td

	scfg := sac.DefaultConfig()
	scfg.Hidden, scfg.BatchSize, scfg.WarmupSteps, scfg.ReplayCapacity = 8, 8, 16, 512
	sa, err := sac.New(stateDim, actionDim, scfg)
	if err != nil {
		t.Fatal(err)
	}
	out[sac.AlgoName] = sa

	pcfg := ppo.DefaultConfig()
	pcfg.Hidden, pcfg.Horizon, pcfg.MinibatchSz, pcfg.Epochs, pcfg.ValueEpochs = 8, 32, 8, 2, 2
	pp, err := ppo.New(stateDim, actionDim, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[ppo.AlgoName] = pp

	rcfg := trpo.DefaultConfig()
	rcfg.Hidden, rcfg.Horizon, rcfg.FisherSamples, rcfg.ValueEpochs = 8, 32, 8, 2
	tr, err := trpo.New(stateDim, actionDim, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[trpo.AlgoName] = tr

	vcfg := vpg.DefaultConfig()
	vcfg.Hidden, vcfg.Horizon, vcfg.ValueEpochs = 8, 32, 2
	vp, err := vpg.New(stateDim, actionDim, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[vpg.AlgoName] = vp
	return out
}

// TestRoundTripBitwiseActions is the core checkpoint property: for every
// training algorithm, snapshot → wire encode → decode → restore yields a
// policy whose actions are bitwise identical to the original over random
// states.
func TestRoundTripBitwiseActions(t *testing.T) {
	for name, agent := range algorithms(t) {
		t.Run(name, func(t *testing.T) {
			env := rltest.NewTargetEnv(mathutil.NewRNG(101), stateDim, actionDim, 20)
			if err := agent.Train(env, 64); err != nil {
				t.Fatal(err)
			}

			st, err := agent.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c := &ckpt.Checkpoint{
				Format:    ckpt.FormatV2,
				Algorithm: "EdgeSlice",
				Agents:    []*ckpt.AgentState{st},
			}
			var buf bytes.Buffer
			if err := ckpt.Write(&buf, c); err != nil {
				t.Fatal(err)
			}
			decoded, err := ckpt.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := ckpt.RestoreAgent(decoded.Agents[0])
			if err != nil {
				t.Fatal(err)
			}

			rng := mathutil.NewRNG(77)
			for i := 0; i < 50; i++ {
				state := make([]float64, stateDim)
				for d := range state {
					state[d] = rng.Float64()*2 - 0.5
				}
				got := restored.Act(state)
				want := agent.Act(state)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("state %d: restored action %v != original %v", i, got, want)
				}
			}
		})
	}
}

// TestRestoredAgentsAreIndependent restores one snapshot twice and trains
// one copy on; the other copy's policy must not move (no shared buffers).
func TestRestoredAgentsAreIndependent(t *testing.T) {
	cfg := ddpg.DefaultConfig()
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 8, 16, 512
	agent, err := ddpg.New(stateDim, actionDim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := rltest.NewTargetEnv(mathutil.NewRNG(5), stateDim, actionDim, 20)
	if err := agent.Train(env, 48); err != nil {
		t.Fatal(err)
	}
	st, err := agent.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := ddpg.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ddpg.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.25, 0.5, 0.75}
	before := a2.Act(state)
	if err := a1.Train(env, 48); err != nil {
		t.Fatal(err)
	}
	if got := a2.Act(state); !reflect.DeepEqual(got, before) {
		t.Fatalf("training one restored copy moved the other: %v -> %v", before, got)
	}
	if got := a1.Act(state); reflect.DeepEqual(got, before) {
		t.Fatal("training the restored copy did not change its policy")
	}
}

func TestRegistryCoversAllSixAlgorithms(t *testing.T) {
	for _, algo := range []string{"ddpg", "ppo", "sac", "td3", "trpo", "vpg"} {
		_, err := ckpt.RestoreAgent(&ckpt.AgentState{Algo: algo})
		if err == nil || strings.Contains(err.Error(), "no restore registered") {
			t.Errorf("%s: empty snapshot restored with error %v, want its restore function's rejection", algo, err)
		}
	}
	if _, err := ckpt.RestoreAgent(&ckpt.AgentState{Algo: "a2c"}); err == nil || !strings.Contains(err.Error(), "no restore registered") {
		t.Errorf("unregistered algorithm: error %v", err)
	}
}

func TestReadRejectsV1AndGarbage(t *testing.T) {
	_, err := ckpt.Read(strings.NewReader(`{"format":"edgeslice-actor-v1","actor":{"layers":[]}}`))
	if err == nil || !strings.Contains(err.Error(), "edgeslice-actor-v1") {
		t.Fatalf("v1 stream: err = %v, want a format error naming edgeslice-actor-v1", err)
	}
	for _, bad := range []string{"", "not json", `{"format":"bogus"}`, `{"format":"edgeslice-checkpoint-v2","agents":[]}`} {
		if _, err := ckpt.Read(strings.NewReader(bad)); err == nil {
			t.Errorf("Read(%q) should fail", bad)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ddpg.DefaultConfig()
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 8, 16, 512
	agent, err := ddpg.New(stateDim, actionDim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := agent.Snapshot(ckpt.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := &ckpt.Checkpoint{Format: ckpt.FormatV2, Algorithm: "EdgeSlice", Agents: []*ckpt.AgentState{st}}

	key := ckpt.Key("edgeslice", "abcdef0123456789deadbeef", 1, 600)
	if _, err := store.Load(key); err == nil {
		t.Fatal("Load of missing key should fail")
	}
	if err := store.Save(key, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Agents[0].Algo != "ddpg" {
		t.Fatalf("loaded algo %q", loaded.Agents[0].Algo)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("store keys %v, want [%s]", keys, key)
	}
}

func TestKeySanitizesHostileNames(t *testing.T) {
	key := ckpt.Key("../evil algo", "0123456789abcdef0123", -3, 10)
	if strings.ContainsAny(key, "/ .") {
		t.Fatalf("key %q leaks path characters", key)
	}
	if !strings.Contains(key, "0123456789abcdef") || strings.Contains(key, "0123456789abcdef0123") {
		t.Fatalf("key %q should truncate the hash to 16 chars", key)
	}
}
