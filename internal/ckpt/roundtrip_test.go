package ckpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
	"edgeslice/internal/rl/rltest"

	// core registers every restore the binaries can load, so the registry
	// test sees what a binary sees.
	_ "edgeslice/internal/core"
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
// snapshots carry warm optimizer moments, advanced generators, and (for
// the off-policy two) non-empty replay buffers.
func algorithms(t *testing.T) map[string]trainable {
	t.Helper()
	out := map[string]trainable{}

	for _, tech := range []string{offpolicy.DDPG, offpolicy.SAC} {
		cfg := offpolicy.DefaultConfig(tech)
		cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 8, 16, 512
		a, err := offpolicy.New(stateDim, actionDim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[tech] = a
	}
	for _, tech := range []string{onpolicy.PPO, onpolicy.TRPO, onpolicy.VPG} {
		cfg := onpolicy.DefaultConfig(tech)
		cfg.Hidden, cfg.Horizon, cfg.MinibatchSz, cfg.Epochs, cfg.FisherSamples, cfg.ValueEpochs = 8, 32, 8, 2, 8, 2
		a, err := onpolicy.New(stateDim, actionDim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[tech] = a
	}
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
				Format:    ckpt.Format,
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
	cfg := offpolicy.DefaultConfig(offpolicy.DDPG)
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 8, 16, 512
	agent, err := offpolicy.New(stateDim, actionDim, cfg)
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
	a1, err := offpolicy.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := offpolicy.Restore(st)
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

func TestRegistryCoversAllFiveAlgorithms(t *testing.T) {
	for _, algo := range []string{"ddpg", "ppo", "sac", "trpo", "vpg"} {
		_, err := ckpt.RestoreAgent(&ckpt.AgentState{Algo: algo})
		if err == nil || strings.Contains(err.Error(), "no restore registered") {
			t.Errorf("%s: empty snapshot restored with error %v, want its restore function's rejection", algo, err)
		}
	}
	for _, algo := range []string{"td3", "a2c"} {
		want := fmt.Sprintf("no restore registered for algorithm %q", algo)
		if _, err := ckpt.RestoreAgent(&ckpt.AgentState{Algo: algo}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", algo, err, want)
		}
	}
}

func TestReadRejectsV1AndGarbage(t *testing.T) {
	_, err := ckpt.Read(strings.NewReader(`{"format":"edgeslice-actor-v1","actor":{"layers":[]}}`))
	if err == nil || !strings.Contains(err.Error(), "edgeslice-actor-v1") {
		t.Fatalf("v1 stream: err = %v, want a format error naming edgeslice-actor-v1", err)
	}
	for _, bad := range []string{"", "not json", `{"format":"bogus"}`, `{"format":"` + ckpt.Format + `","agents":[]}`} {
		if _, err := ckpt.Read(strings.NewReader(bad)); err == nil {
			t.Errorf("Read(%q) should fail", bad)
		}
	}
}

// A v2 checkpoint held its RNG as a (seed, draws) cursor, which no trainer
// can restore any more: Read refuses it by its format name, before any
// restore sees the cursor.
func TestReadRejectsV2(t *testing.T) {
	v2 := `{"format":"edgeslice-checkpoint-v2","algorithm":"EdgeSlice","shared":true,"agents":[` +
		`{"algo":"ddpg","state_dim":3,"action_dim":2,"config":{},"nets":{},"rng":{"seed":1,"calls":826501},"updates":11500}]}`
	_, err := ckpt.Read(strings.NewReader(v2))
	if err == nil || !strings.Contains(err.Error(), "edgeslice-checkpoint-v2") {
		t.Fatalf("v2 checkpoint: err = %v, want a format error naming edgeslice-checkpoint-v2", err)
	}
}

// A v3 checkpoint spelled its tensors out in JSON: Decode refuses it by
// its format name, and a truncated, corrupted or oversized v4 file is an
// error, not a panic or a 2⁴⁰-value allocation.
func TestReadRejectsV3(t *testing.T) {
	v3, err := os.ReadFile("testdata/v3-ddpg.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Decode(v3); err == nil || !strings.Contains(err.Error(), "edgeslice-checkpoint-v3") || !strings.Contains(err.Error(), ckpt.Format) {
		t.Fatalf("v3 checkpoint: err = %v, want a format error naming edgeslice-checkpoint-v3 and %s", err, ckpt.Format)
	}
	valid := goldenFile(t)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-40] ^= 1
	for name, bad := range map[string][]byte{
		"truncated payload": valid[:len(valid)-9],
		"no checksum":       valid[:len(valid)-4],
		"flipped bit":       flipped,
		"2^40-value actor":  hugeTensorFile(t),
	} {
		if _, err := ckpt.Decode(bad); err == nil {
			t.Errorf("%s: Decode accepted it", name)
		}
	}
	if _, err := ckpt.Decode(hugeTensorFile(t)); err == nil || !strings.Contains(err.Error(), "1099511627776 values") {
		t.Errorf("2^40-value actor: err = %v, want one naming the declared length", err)
	}
}

// A snapshot stores the generator's state, not a count of its draws, so
// its RNG field does not grow with training: a DDPG and a PPO agent store
// fields of one length after n steps and after 10·n.
func TestSnapshotRNGLengthFixed(t *testing.T) {
	agents := algorithms(t)
	for _, tech := range []string{offpolicy.DDPG, onpolicy.PPO} {
		a := agents[tech]
		env := rltest.NewTargetEnv(mathutil.NewRNG(3), stateDim, actionDim, 20)
		var lens []int
		for _, steps := range []int{64, 9 * 64} { // n, then 10·n in all
			if err := a.Train(env, steps); err != nil {
				t.Fatal(err)
			}
			st, err := a.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			lens = append(lens, len(st.RNG))
		}
		if lens[0] == 0 || lens[0] != lens[1] {
			t.Errorf("%s: RNG field is %d bytes after 64 steps and %d after 640, want one non-zero length", tech, lens[0], lens[1])
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := offpolicy.DefaultConfig(offpolicy.DDPG)
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 8, 16, 512
	agent, err := offpolicy.New(stateDim, actionDim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := agent.Snapshot(ckpt.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := &ckpt.Checkpoint{Format: ckpt.Format, Algorithm: "EdgeSlice", Agents: []*ckpt.AgentState{st}}

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

// writeRead takes one agent's snapshot through Write and Read, the path a
// stored checkpoint takes, and returns the file bytes with the decoded
// state.
func writeRead(t *testing.T, st *ckpt.AgentState) ([]byte, *ckpt.AgentState) {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, &ckpt.Checkpoint{Format: ckpt.Format, Algorithm: "EdgeSlice", Agents: []*ckpt.AgentState{st}}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	c, err := ckpt.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return data, c.Agents[0]
}

// acting names each algorithm's acting network role.
var acting = map[string]string{"ddpg": "actor", "sac": "actor", "ppo": "policy-mean", "trpo": "policy-mean", "vpg": "policy-mean"}

// TestDeployMatchesRestore is the deploy half of the checkpoint property:
// for every training algorithm, the policy Deploy builds from a stored
// checkpoint acts bit-identically to the agent RestoreAgent rebuilds, in
// scalar Act and in ActBatch, on seeded states and on 0, 1 and ±large
// inputs; both match the scalar forward of the stored acting network (its
// squashed mean half for SAC); and a warm deployed ActBatch allocates
// nothing.
func TestDeployMatchesRestore(t *testing.T) {
	for name, agent := range algorithms(t) {
		t.Run(name, func(t *testing.T) {
			env := rltest.NewTargetEnv(mathutil.NewRNG(202), stateDim, actionDim, 20)
			if err := agent.Train(env, 64); err != nil {
				t.Fatal(err)
			}
			st, err := agent.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, decoded := writeRead(t, st)
			restored, err := ckpt.RestoreAgent(decoded)
			if err != nil {
				t.Fatal(err)
			}
			deployed, err := ckpt.Deploy(decoded)
			if err != nil {
				t.Fatal(err)
			}

			states := nn.NewMatrix(0, stateDim)
			for _, v := range []float64{0, 1, -1, 1e6, -1e6, 1e300, -1e300} {
				states.Data = append(states.Data, v, v, -v)
				states.Rows++
			}
			rng := mathutil.NewRNG(78)
			for i := 0; i < 20; i++ {
				for d := 0; d < stateDim; d++ {
					states.Data = append(states.Data, rng.NormFloat64()*3)
				}
				states.Rows++
			}
			net, err := decoded.Net(acting[name])
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < states.Rows; r++ {
				want := net.Forward1(states.Row(r))
				if name == offpolicy.SAC {
					want = want[:actionDim]
					for i, u := range want {
						want[i] = 0.5 * (math.Tanh(u) + 1)
					}
				}
				if got := deployed.Act(states.Row(r)); !sameBits(got, want) {
					t.Fatalf("state %v: deployed Act %v != stored network's action %v", states.Row(r), got, want)
				}
			}
			var wsR, wsD nn.Workspace
			want := rl.AsBatchActor(restored).ActBatch(states, &wsR)
			got := deployed.ActBatch(states, &wsD)
			if !sameBits(got.Data, want.Data) || got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("deployed ActBatch %v != restored %v", got.Data, want.Data)
			}
			for r := 0; r < states.Rows; r++ {
				if got, want := deployed.Act(states.Row(r)), restored.Act(states.Row(r)); !sameBits(got, want) {
					t.Fatalf("state %v: deployed Act %v != restored %v", states.Row(r), got, want)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				wsD.Reset()
				deployed.ActBatch(states, &wsD)
			}); allocs != 0 {
				t.Errorf("warm deployed ActBatch allocates %v times, want 0", allocs)
			}
		})
	}
}

// sameBits compares bit patterns, so a NaN a saturated input produces
// matches itself.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestDeployByteRoundTrip pins the lazy roles to the wire: decoding a
// checkpoint and writing it again reproduces the file byte for byte, with
// and without a replay buffer.
func TestDeployByteRoundTrip(t *testing.T) {
	for name, agent := range algorithms(t) {
		t.Run(name, func(t *testing.T) {
			env := rltest.NewTargetEnv(mathutil.NewRNG(303), stateDim, actionDim, 20)
			if err := agent.Train(env, 64); err != nil {
				t.Fatal(err)
			}
			for _, replay := range []bool{false, true} {
				st, err := agent.Snapshot(ckpt.SnapshotOptions{IncludeReplay: replay})
				if err != nil {
					t.Fatal(err)
				}
				data, _ := writeRead(t, st)
				c, err := ckpt.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				var again bytes.Buffer
				if err := ckpt.Write(&again, c); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), data) {
					t.Fatalf("replay %v: Decode then Write changed the %d-byte file", replay, len(data))
				}
			}
		})
	}
}

// TestDeployMissingActorNamesRole: a deploy needs the acting role and
// names it when it is missing; a training restore still needs every role,
// a critic included.
func TestDeployMissingActorNamesRole(t *testing.T) {
	critic := map[string]string{"ddpg": "critic", "sac": "q1", "ppo": "value", "trpo": "value", "vpg": "value"}
	for name, agent := range algorithms(t) {
		t.Run(name, func(t *testing.T) {
			st, err := agent.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, decoded := writeRead(t, st)
			if _, err := ckpt.Deploy(decoded); err != nil {
				t.Fatalf("complete snapshot: %v", err)
			}

			noCritic := *decoded
			noCritic.Nets = maps.Clone(decoded.Nets)
			delete(noCritic.Nets, critic[name])
			if _, err := ckpt.Deploy(&noCritic); err != nil {
				t.Errorf("deploy without %q: %v, want success (it builds no critic)", critic[name], err)
			}
			if _, err := ckpt.RestoreAgent(&noCritic); !errors.Is(err, ckpt.ErrMissingNet) || !strings.Contains(err.Error(), strconv.Quote(critic[name])) {
				t.Errorf("restore without %q: err = %v, want ErrMissingNet naming it", critic[name], err)
			}

			noActor := *decoded
			noActor.Nets = maps.Clone(decoded.Nets)
			delete(noActor.Nets, acting[name])
			if _, err := ckpt.Deploy(&noActor); !errors.Is(err, ckpt.ErrMissingNet) || !strings.Contains(err.Error(), strconv.Quote(acting[name])) {
				t.Errorf("deploy without %q: err = %v, want ErrMissingNet naming it", acting[name], err)
			}
		})
	}
}
