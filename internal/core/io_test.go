package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
)

// hammerConcurrently calls Act from many goroutines and checks every
// result against the serially computed reference. Run under -race this is
// the regression test for the shared-scratch data race loaded policies
// used to have.
func hammerConcurrently(t *testing.T, agent rl.Agent) {
	t.Helper()
	const goroutines, calls = 8, 200
	states := make([][]float64, 16)
	want := make([][]float64, len(states))
	rng := mathutil.NewRNG(11)
	for i := range states {
		states[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		want[i] = agent.Act(states[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				i := (g + c) % len(states)
				if got := agent.Act(states[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- "concurrent Act returned a corrupted action"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// loadedPolicy writes a small DDPG agent as a one-agent checkpoint and
// loads it back.
func loadedPolicy(t *testing.T) *rl.DeployedPolicy {
	t.Helper()
	cfg := ddpg.DefaultConfig()
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 8, 8, 16, 128
	dd, err := ddpg.New(4, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dd.Snapshot(ckpt.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = ckpt.Write(&buf, &ckpt.Checkpoint{
		Format:    ckpt.FormatV2,
		Algorithm: AlgoEdgeSlice.String(),
		Agents:    []*ckpt.AgentState{st},
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := LoadAgent(&buf, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

func TestLoadedV2PolicyConcurrentAct(t *testing.T) {
	hammerConcurrently(t, loadedPolicy(t))
}

// TestLoadedPolicyConcurrentActAndBatch: a loaded policy serves scalar Act
// and ActBatch (each goroutine on its own workspace) from 4 goroutines at
// once, and every result equals the serial one.
func TestLoadedPolicyConcurrentActAndBatch(t *testing.T) {
	p := loadedPolicy(t)
	states := nn.NewMatrix(5, 4)
	rng := mathutil.NewRNG(12)
	for i := range states.Data {
		states.Data[i] = rng.Float64()
	}
	var ws nn.Workspace
	want := append([]float64(nil), p.ActBatch(states, &ws).Data...)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws nn.Workspace
			for c := 0; c < 200; c++ {
				ws.Reset()
				if got := p.ActBatch(states, &ws); !reflect.DeepEqual(got.Data, want) {
					errs <- "concurrent ActBatch returned a corrupted batch"
					return
				}
				r := (g + c) % states.Rows
				if got := p.Act(states.Row(r)); !reflect.DeepEqual(got, want[r*2:(r+1)*2]) {
					errs <- "concurrent Act returned a corrupted action"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestLoadAgentRefusesOtherShape: an EdgeSlice-NT checkpoint (2-wide
// state) deployed into the default queue-observing environment (4-wide) is
// an error naming both shapes, not a panic at the agent's first period.
func TestLoadAgentRefusesOtherShape(t *testing.T) {
	widths := func(algo Algorithm) (int, int) {
		cfg := DefaultConfig()
		cfg.Algo = algo
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Env(0).StateDim(), s.Env(0).ActionDim()
	}
	ntState, ntAction := widths(AlgoEdgeSliceNT)
	state, action := widths(AlgoEdgeSlice)
	dcfg := ddpg.DefaultConfig()
	dcfg.Hidden = 8
	dd, err := ddpg.New(ntState, ntAction, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dd.Snapshot(ckpt.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c := &ckpt.Checkpoint{Format: ckpt.FormatV2, Algorithm: AlgoEdgeSliceNT.String(), Agents: []*ckpt.AgentState{st}}
	if err := ckpt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	_, err = LoadAgent(bytes.NewReader(buf.Bytes()), state, action)
	if err == nil || !strings.Contains(err.Error(), "2x6") || !strings.Contains(err.Error(), "4x6") {
		t.Fatalf("NT checkpoint into the %dx%d environment: %v, want an error naming 2x6 and 4x6", state, action, err)
	}
	if _, err := LoadAgent(bytes.NewReader(buf.Bytes()), ntState, ntAction); err != nil {
		t.Fatalf("NT checkpoint into an NT environment: %v", err)
	}
}

func TestLoadAgentReportsUnknownFormat(t *testing.T) {
	for _, format := range []string{"edgeslice-actor-v1", "edgeslice-actor-v9"} {
		_, err := LoadAgent(strings.NewReader(`{"format":"`+format+`","actor":{"layers":[]}}`), 4, 2)
		if err == nil || !strings.Contains(err.Error(), format) || !strings.Contains(err.Error(), ckpt.FormatV2) {
			t.Fatalf("err = %v, want a format error naming %s and %s", err, format, ckpt.FormatV2)
		}
	}
}

func TestTrainingFingerprintStability(t *testing.T) {
	cfg := DefaultConfig()
	h1, err := TrainingFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := TrainingFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", h1)
	}

	// The base seed is keyed separately by the store, not hashed.
	seeded := cfg
	seeded.Seed = 999
	hs, err := TrainingFingerprint(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if hs != h1 {
		t.Fatal("base seed must not change the fingerprint (it is a separate key component)")
	}

	// Anything the trained agents depend on must change it.
	algo := cfg
	algo.Algo = AlgoEdgeSliceNT
	ha, err := TrainingFingerprint(algo)
	if err != nil {
		t.Fatal(err)
	}
	if ha == h1 {
		t.Fatal("algorithm change must change the fingerprint")
	}
	hidden := cfg
	hidden.DDPG.Hidden = 64
	hh, err := TrainingFingerprint(hidden)
	if err != nil {
		t.Fatal(err)
	}
	if hh == h1 {
		t.Fatal("hyper-parameter change must change the fingerprint")
	}
}
