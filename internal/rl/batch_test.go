package rl_test

import (
	"math/rand"
	"testing"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/rl/ppo"
	"edgeslice/internal/rl/sac"
	"edgeslice/internal/rl/trpo"
	"edgeslice/internal/rl/vpg"
)

const (
	batchStateDim  = 5
	batchActionDim = 3
)

// batchAgents builds one freshly-initialized agent per training algorithm;
// untrained actors are deterministic functions of their seed, which is all
// ActBatch bit-identity needs.
func batchAgents(t *testing.T) map[string]rl.Agent {
	t.Helper()
	out := map[string]rl.Agent{}

	dcfg := ddpg.DefaultConfig()
	dcfg.Hidden = 16
	dd, err := ddpg.New(batchStateDim, batchActionDim, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[ddpg.AlgoName] = dd

	scfg := sac.DefaultConfig()
	scfg.Hidden = 16
	sa, err := sac.New(batchStateDim, batchActionDim, scfg)
	if err != nil {
		t.Fatal(err)
	}
	out[sac.AlgoName] = sa

	pcfg := ppo.DefaultConfig()
	pcfg.Hidden = 16
	pp, err := ppo.New(batchStateDim, batchActionDim, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[ppo.AlgoName] = pp

	rcfg := trpo.DefaultConfig()
	rcfg.Hidden = 16
	tr, err := trpo.New(batchStateDim, batchActionDim, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[trpo.AlgoName] = tr

	vcfg := vpg.DefaultConfig()
	vcfg.Hidden = 16
	vp, err := vpg.New(batchStateDim, batchActionDim, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	out[vpg.AlgoName] = vp
	return out
}

func randomStates(rows int) *nn.Matrix {
	rng := rand.New(rand.NewSource(99)) //nolint:gosec // test determinism
	x := nn.NewMatrix(rows, batchStateDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// TestActBatchMatchesAct pins the BatchActor contract for every training
// algorithm: row r of one ActBatch call is bitwise identical to Act on
// state r.
func TestActBatchMatchesAct(t *testing.T) {
	for name, agent := range batchAgents(t) {
		t.Run(name, func(t *testing.T) {
			ba := rl.AsBatchActor(agent)
			if ba == nil {
				t.Fatalf("%s does not implement rl.BatchActor", name)
			}
			const rows = 13
			x := randomStates(rows)
			var ws nn.Workspace
			y := ba.ActBatch(x, &ws)
			if y.Rows != rows || y.Cols != batchActionDim {
				t.Fatalf("ActBatch shape %dx%d, want %dx%d", y.Rows, y.Cols, rows, batchActionDim)
			}
			for r := 0; r < rows; r++ {
				want := agent.Act(x.Row(r))
				got := y.Row(r)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d action[%d]: batch %v != Act %v (must be bitwise equal)",
							r, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestActBatchWarmAllocs is the CI allocation gate at the agent layer: a
// warm ActBatch call must allocate nothing, for every algorithm.
func TestActBatchWarmAllocs(t *testing.T) {
	for name, agent := range batchAgents(t) {
		t.Run(name, func(t *testing.T) {
			ba := rl.AsBatchActor(agent)
			if ba == nil {
				t.Fatalf("%s does not implement rl.BatchActor", name)
			}
			x := randomStates(16)
			var ws nn.Workspace
			ba.ActBatch(x, &ws) // warm the arena
			allocs := testing.AllocsPerRun(100, func() {
				ws.Reset()
				ba.ActBatch(x, &ws)
			})
			if allocs != 0 {
				t.Errorf("warm ActBatch allocates %v times per call, want 0", allocs)
			}
		})
	}
}

// TestMeanActionWS pins satellite behavior on the shared policy: the
// workspace route is bitwise identical to MeanAction and allocates nothing
// warm.
func TestMeanActionWS(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //nolint:gosec // test determinism
	p := rl.NewGaussianPolicy(rng, batchStateDim, batchActionDim, 16, 0.3)
	state := randomStates(1).Row(0)
	var ws nn.Workspace
	want := p.MeanAction(state)
	got := p.MeanActionWS(state, &ws)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action[%d]: MeanActionWS %v != MeanAction %v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		p.MeanActionWS(state, &ws)
	})
	if allocs != 0 {
		t.Errorf("warm MeanActionWS allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.MeanAction(state) }); allocs > 1 {
		t.Errorf("MeanAction allocates %v times per call, want at most the returned copy (1)", allocs)
	}
}

// TestAsBatchActor pins the classifier: unknown agents return nil,
// implementers return themselves.
func TestAsBatchActor(t *testing.T) {
	if ba := rl.AsBatchActor(rl.AgentFunc(func(s []float64) []float64 { return s })); ba != nil {
		t.Error("AgentFunc should not classify as a BatchActor")
	}
	agents := batchAgents(t)
	dd := agents[ddpg.AlgoName]
	if ba := rl.AsBatchActor(dd); ba == nil {
		t.Error("ddpg agent should classify as a BatchActor")
	}
}
