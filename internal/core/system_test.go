package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumRAs = 0 },
		func(c *Config) { c.Algo = 0 },
		func(c *Config) { c.Umin = []float64{1} },
		func(c *Config) { c.TrainSteps = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestAlgorithmStrings(t *testing.T) {
	cases := map[Algorithm]string{
		AlgoEdgeSlice:   "EdgeSlice",
		AlgoEdgeSliceNT: "EdgeSlice-NT",
		AlgoTARO:        "TARO",
		AlgoEqualShare:  "EqualShare",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if !AlgoEdgeSlice.IsLearning() || AlgoTARO.IsLearning() {
		t.Error("IsLearning misclassifies")
	}
}

func TestRunBeforeTrainFails(t *testing.T) {
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunPeriods(1); err == nil {
		t.Error("RunPeriods before Train should fail")
	}
}

func TestTAROOrchestration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algo = AlgoTARO
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil { // no-op for TARO
		t.Fatal(err)
	}
	h, err := s.RunPeriods(5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Intervals() != 5*cfg.EnvTemplate.T {
		t.Errorf("intervals = %d, want %d", h.Intervals(), 5*cfg.EnvTemplate.T)
	}
	if h.Periods() != 5 {
		t.Errorf("periods = %d, want 5", h.Periods())
	}
}

func TestEqualShareOrchestration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algo = AlgoEqualShare
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	h, err := s.RunPeriods(3)
	if err != nil {
		t.Fatal(err)
	}
	// Equal share: both slices always use identical shares.
	for k := 0; k < netsim.NumResources; k++ {
		u0, u1 := h.IntervalColumn(1+h.NumSlices+k), h.IntervalColumn(1+h.NumSlices+netsim.NumResources+k)
		if !reflect.DeepEqual(u0, u1) {
			t.Fatalf("equal-share usage of resource %d differs: %v vs %v", k, u0, u1)
		}
	}
}

func TestHistoryAccessors(t *testing.T) {
	h, stream := NewHistory(2, 2, 10), NewStreamingHistory(2, 2, 10, 4)
	if _, err := h.MeanSystemPerf(5); err == nil {
		t.Error("empty history should error")
	}
	if _, err := h.MeanUsage(0, 0, 5); err == nil {
		t.Error("empty usage should error")
	}
	if _, err := h.SLASatisfactionRate(1); err == nil {
		t.Error("empty SLA should error")
	}
	for _, rec := range []*History{h, stream} {
		if err := rec.AddInterval(-10, []float64{-4, -6}, [][]float64{{0.5, 0.4, 0.1}, {0.1, 0.2, 0.6}}, 0); err != nil {
			t.Fatal(err)
		}
		if err := rec.AddPeriod([][]float64{{-4, -4}, {-6, -6}}, []bool{true, false}, 0.1, 0.2); err != nil {
			t.Fatal(err)
		}
		// Slice 0's column of resource K would be slice 1's first one.
		if _, err := rec.MeanUsage(0, netsim.NumResources, 0); err == nil {
			t.Errorf("streaming %v: out-of-range resource should error", rec.Streaming())
		}
	}
	mp, err := h.MeanSystemPerf(0)
	if err != nil || mp != -10 {
		t.Errorf("MeanSystemPerf = %v (%v)", mp, err)
	}
	u, err := h.MeanUsage(1, 2, 0)
	if err != nil || u != 0.6 {
		t.Errorf("MeanUsage = %v (%v)", u, err)
	}
	ratio, err := h.UsageRatio(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.5 + 0.4 + 0.1) / (0.1 + 0.2 + 0.6)
	if ratio != want {
		t.Errorf("UsageRatio = %v, want %v", ratio, want)
	}
	rate, err := h.SLASatisfactionRate(0)
	if err != nil || rate != 0.5 {
		t.Errorf("SLASatisfactionRate = %v (%v)", rate, err)
	}
	if _, err := h.MeanUsage(9, 0, 1); err == nil {
		t.Error("out-of-range slice should error")
	}
}

func TestAgentSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainSteps = 400 // just enough to build networks
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	dd, ok := s.agents[0].(*offpolicy.Agent)
	if !ok {
		t.Fatalf("agent is %T, want *offpolicy.Agent", s.agents[0])
	}
	c, err := s.AgentCheckpoint(0, ckpt.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAgent(&buf, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.2, 0.1, -0.3, -0.5}
	a := dd.Act(state)
	b := loaded.Act(state)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored policy differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadAgentRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"format":"wrong","actor":null}`,
		`{"format":"edgeslice-actor-v1","actor":null}`,
	}
	for _, c := range cases {
		if _, err := LoadAgent(strings.NewReader(c), 4, 6); err == nil {
			t.Errorf("LoadAgent(%q) should fail", c)
		}
	}
}

func TestSetAgents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algo = AlgoEdgeSlice
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actor := nn.NewMLP(rand.New(rand.NewSource(3)), s.Env(0).StateDim(),
		nn.LayerSpec{Out: s.Env(0).ActionDim(), Act: nn.ActSigmoid})
	policy := rl.NewDeployedPolicy(actor, false)
	if err := s.SetAgents([]rl.Agent{policy}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunPeriods(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAgents([]rl.Agent{policy, policy, policy}); err == nil {
		t.Error("wrong agent count should fail")
	}
	stub := rl.AgentFunc(func(state []float64) []float64 {
		return make([]float64, 6)
	})
	if err := s.SetAgents([]rl.Agent{stub}); err == nil || !strings.Contains(err.Error(), "no ActBatch") {
		t.Errorf("an agent without ActBatch installed: %v", err)
	}
}

// Actor hands out DDPG actors only: a SAC actor's head is its Gaussian's
// mean and log-std, twice an action wide, and a deployed policy has none.
func TestActorRejectsNonDDPGAgents(t *testing.T) {
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := offpolicy.DefaultConfig(offpolicy.SAC)
	cfg.Hidden = 8
	sac, err := offpolicy.New(s.Env(0).StateDim(), s.Env(0).ActionDim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, agent := range []rl.Agent{sac, sac.DeployedPolicy} {
		if err := s.SetAgents([]rl.Agent{agent}); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Actor(0); err == nil || !strings.Contains(err.Error(), "not a DDPG agent") {
			t.Errorf("Actor of a %T agent: %v, %v; want the not-a-DDPG-agent error", agent, n, err)
		}
	}
}
