package core

import (
	"fmt"
	"testing"

	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/rl/ppo"
	"edgeslice/internal/rl/sac"
	"edgeslice/internal/rl/trpo"
	"edgeslice/internal/rl/vpg"
	"edgeslice/internal/telemetry"
)

// batchedTestAgent builds one freshly-initialized agent of the named
// training algorithm; identical (name, dims) arguments always yield
// bitwise-identical actors, so reference and batched systems can be
// deployed independently.
func batchedTestAgent(t *testing.T, name string, stateDim, actionDim int) rl.Agent {
	t.Helper()
	var (
		a   rl.Agent
		err error
	)
	switch name {
	case ddpg.AlgoName:
		cfg := ddpg.DefaultConfig()
		cfg.Hidden = 16
		a, err = ddpg.New(stateDim, actionDim, cfg)
	case sac.AlgoName:
		cfg := sac.DefaultConfig()
		cfg.Hidden = 16
		a, err = sac.New(stateDim, actionDim, cfg)
	case ppo.AlgoName:
		cfg := ppo.DefaultConfig()
		cfg.Hidden = 16
		a, err = ppo.New(stateDim, actionDim, cfg)
	case trpo.AlgoName:
		cfg := trpo.DefaultConfig()
		cfg.Hidden = 16
		a, err = trpo.New(stateDim, actionDim, cfg)
	case vpg.AlgoName:
		cfg := vpg.DefaultConfig()
		cfg.Hidden = 16
		a, err = vpg.New(stateDim, actionDim, cfg)
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// trainerNames are the five training algorithms whose policies the engines
// must batch bit-identically.
var trainerNames = []string{
	ddpg.AlgoName, sac.AlgoName, ppo.AlgoName, trpo.AlgoName, vpg.AlgoName,
}

// algoSystem deploys a system whose every RA shares one agent of the named
// training algorithm.
func algoSystem(t *testing.T, cfg Config, algo string) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agent := batchedTestAgent(t, algo, s.Env(0).StateDim(), s.Env(0).ActionDim())
	if err := s.SetAgents([]rl.Agent{agent}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBatchedMatchesSerial is the batched half of the determinism suite:
// for a baseline and every kind of policy, the batched engine's History and
// monitor series must be bit-identical to the interleaved reference run's,
// for worker counts 1, 4, and NumRAs.
func TestBatchedMatchesSerial(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, deploy func() *System) {
		requireEngineMatchesReference(t, deploy, func(w int) Executor { return NewBatchedExecutor(w) })
	})
}

// TestBatchedBaselineFallsBackToSerial pins the all-fallback path: a
// non-learning baseline has no policies to batch, so every RA computes its
// own action in the step stage and the run still matches serial exactly.
func TestBatchedBaselineFallsBackToSerial(t *testing.T) {
	cfg := execTestConfig(AlgoTARO)
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(3)
	if err != nil {
		t.Fatal(err)
	}
	s := deployedSystem(t, cfg)
	e := NewBatchedExecutor(4)
	h, err := s.RunPeriodsWith(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "baseline-fallback", hRef, h, ref.Monitor(), s.Monitor())
}

// mixedAgents installs a mixed deployment on a 4-RA system: RAs 0 and 2
// share one batchable DDPG agent, RAs 1 and 3 run opaque AgentFunc stubs
// the engine must route through the per-RA fallback.
func mixedAgents(t *testing.T, s *System) {
	t.Helper()
	dd := batchedTestAgent(t, ddpg.AlgoName, s.Env(0).StateDim(), s.Env(0).ActionDim())
	stub := func(bias float64) rl.Agent {
		return rl.AgentFunc(func(state []float64) []float64 {
			out := make([]float64, s.Env(0).ActionDim())
			for i := range out {
				out[i] = bias + 0.04*float64(i)
			}
			return out
		})
	}
	if err := s.SetAgents([]rl.Agent{dd, stub(0.2), dd, stub(0.3)}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedMixedSystemMatchesSerial covers systems that split into a
// batched group plus per-RA fallback RAs: the interleaved scatter must
// still merge History and monitor series in serial's (interval, RA, slice)
// order.
func TestBatchedMixedSystemMatchesSerial(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	cfg.NumRAs = 4
	ref, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixedAgents(t, ref)
	hRef := referenceRun(t, ref, 3)
	for _, workers := range []int{1, 4} {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mixedAgents(t, s)
		e := NewBatchedExecutor(workers)
		h, err := s.RunPeriodsWith(e, 3)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, fmt.Sprintf("mixed workers=%d", workers), hRef, h, ref.Monitor(), s.Monitor())
	}
}

// TestBatchedShardedMatchesSerial pushes a group past 2*minShardRows so the
// wide forward actually fans out across shard goroutines, and requires the
// result to stay bit-identical to serial — the full gather→shard→scatter
// path under -race.
func TestBatchedShardedMatchesSerial(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	cfg.NumRAs = 2*minShardRows + 2
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewBatchedExecutor(4)
	s := deployedSystem(t, cfg)
	h, err := s.RunPeriodsWith(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.cachePlan.groups); got != 1 {
		t.Fatalf("expected one policy group, got %d", got)
	}
	if shards := len(e.cachePlan.groups[0].res); shards < 2 {
		t.Fatalf("expected a sharded wide forward, got %d shard(s)", shards)
	}
	requireSameRun(t, "sharded", hRef, h, ref.Monitor(), s.Monitor())
}

// TestBatchedPersistentAcrossCalls exercises the scenario-runner calling
// pattern: one batched executor driving many RunPeriods(1) calls — reusing
// its cached batch plan — must match one serial RunPeriods(n) call,
// including the continuous monitor interval numbering.
func TestBatchedPersistentAcrossCalls(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(3)
	if err != nil {
		t.Fatal(err)
	}
	s := deployedSystem(t, cfg)
	e := NewBatchedExecutor(2)
	defer e.Close()
	h := NewHistory(hRef.NumSlices, hRef.NumRAs, hRef.T)
	for p := 0; p < 3; p++ {
		hp, err := s.RunPeriodsWith(e, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Append(hp); err != nil {
			t.Fatal(err)
		}
	}
	requireSameRun(t, "period-at-a-time", hRef, h, ref.Monitor(), s.Monitor())
}

// TestBatchedTelemetry pins the engine's exported gauges: forwards
// accumulate, batch size reports the gather width, and batches-per-period
// equals policy groups × T.
func TestBatchedTelemetry(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	s := deployedSystem(t, cfg)
	e := NewBatchedExecutor(1)
	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg)
	if _, err := s.RunPeriodsWith(e, 2); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	T := cfg.EnvTemplate.T
	if got := snap["edgeslice_executor_batched_forwards_total"]; got != float64(2*T) {
		t.Errorf("forwards_total = %v, want %v", got, 2*T)
	}
	if got := snap["edgeslice_executor_batch_size"]; got != float64(cfg.NumRAs) {
		t.Errorf("batch_size = %v, want %v", got, cfg.NumRAs)
	}
	if got := snap["edgeslice_executor_batches_per_period"]; got != float64(T) {
		t.Errorf("batches_per_period = %v, want %v", got, T)
	}
}
