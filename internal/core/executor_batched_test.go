package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
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
	if name == offpolicy.DDPG || name == offpolicy.SAC {
		cfg := offpolicy.DefaultConfig(name)
		cfg.Hidden = 16
		a, err = offpolicy.New(stateDim, actionDim, cfg)
	} else {
		cfg := onpolicy.DefaultConfig(name)
		cfg.Hidden = 16
		a, err = onpolicy.New(stateDim, actionDim, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// trainerNames are the five training algorithms whose policies the engines
// must batch bit-identically.
var trainerNames = []string{
	offpolicy.DDPG, offpolicy.SAC, onpolicy.PPO, onpolicy.TRPO, onpolicy.VPG,
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
// for a baseline and every kind of policy, the batched engine's History
// must be bit-identical to the interleaved reference run's, for worker
// counts 1, 4, and NumRAs.
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
	requireSameRun(t, "baseline-fallback", hRef, h)
}

// secondPolicy is a deployed actor other than deployedSystem's, so the RAs
// it serves batch as a second policy group.
func secondPolicy(s *System) *rl.DeployedPolicy {
	actor := nn.NewMLP(rand.New(rand.NewSource(11)), s.Env(0).StateDim(),
		nn.LayerSpec{Out: 16, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: s.Env(0).ActionDim(), Act: nn.ActSigmoid},
	)
	return rl.NewDeployedPolicy(actor, false)
}

// mixedAgents installs a mixed deployment on a 4-RA system: RAs 0 and 2
// share one batchable DDPG agent, RAs 1 and 3 a second deployed policy.
func mixedAgents(t *testing.T, s *System) {
	t.Helper()
	dd := batchedTestAgent(t, offpolicy.DDPG, s.Env(0).StateDim(), s.Env(0).ActionDim())
	dp := secondPolicy(s)
	if err := s.SetAgents([]rl.Agent{dd, dp, dd, dp}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedMixedSystemMatchesSerial covers systems that split into
// interleaved policy groups: the per-group scatter must still merge the
// History in serial's (interval, RA, slice) order.
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
		requireSameRun(t, fmt.Sprintf("mixed workers=%d", workers), hRef, h)
	}
}

// TestBatchedShardedMatchesSerial pushes a shared group past two chunks so
// the period actually fans out across step workers, each forwarding its own
// chunks' rows, and requires the result to stay bit-identical to serial —
// the full chunk gather→forward→step path under -race.
func TestBatchedShardedMatchesSerial(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	cfg.NumRAs = 2*chunkRAs + 2
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
	if got := e.cachePlan.workers; got < 2 {
		t.Fatalf("period ran on %d step worker(s), want more than one", got)
	}
	if got, T := e.perPeriod.Load(), cfg.EnvTemplate.T; got <= int64(T) {
		t.Fatalf("period ran %d chunk forwards at T = %d, want more than one per interval", got, T)
	}
	requireSameRun(t, "sharded", hRef, h)
}

// loggedRun records n periods of s into a fresh History and an in-memory
// history log, with run doing the stepping, and returns both.
func loggedRun(t *testing.T, s *System, n int, run func(*System, int) *History) (*History, []byte) {
	t.Helper()
	var buf bytes.Buffer
	hlog, err := NewHistoryLog(telemetry.NewLogWriter(&buf), s.cfg.EnvTemplate.NumSlices, s.NumRAs(), s.cfg.EnvTemplate.T)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRecording(RecordOptions{Log: hlog})
	h := run(s, n)
	if err := hlog.Close(); err != nil {
		t.Fatal(err)
	}
	return h, buf.Bytes()
}

// TestBatchedTwoGroupsMatchesSerial alternates two distinct batchable
// agents over 2·64 + 3 RAs, so every chunk forwards two group spans and the
// last chunk is short (two rows and one): History and history-log bytes must equal the interleaved reference run's for every
// worker count.
func TestBatchedTwoGroupsMatchesSerial(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	cfg.NumRAs = 2*chunkRAs + 3
	deploy := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dd := batchedTestAgent(t, offpolicy.DDPG, s.Env(0).StateDim(), s.Env(0).ActionDim())
		sc := batchedTestAgent(t, offpolicy.SAC, s.Env(0).StateDim(), s.Env(0).ActionDim())
		agents := make([]rl.Agent, cfg.NumRAs)
		for j := range agents {
			agents[j] = dd
			if j%2 == 1 {
				agents[j] = sc
			}
		}
		if err := s.SetAgents(agents); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := deploy()
	hRef, logRef := loggedRun(t, ref, 2, func(s *System, n int) *History { return referenceRun(t, s, n) })
	for _, workers := range []int{1, 2, 4, cfg.NumRAs} {
		label := fmt.Sprintf("two groups workers=%d", workers)
		e := NewBatchedExecutor(workers)
		s := deploy()
		h, log := loggedRun(t, s, 2, func(s *System, n int) *History {
			h, err := s.RunPeriodsWith(e, n)
			if err != nil {
				t.Fatal(err)
			}
			return h
		})
		requireSameRun(t, label, hRef, h)
		if !bytes.Equal(log, logRef) {
			t.Errorf("%s: history log differs from the reference run", label)
		}
		if got := len(e.cachePlan.spans); got != 2*len(e.cachePlan.chunkErr) {
			t.Errorf("%s: %d group spans over %d chunks, want two per chunk", label, got, len(e.cachePlan.chunkErr))
		}
	}
}

// nanPolicy serves RAs of one chunk with the embedded policy's actions
// until its ActBatch call number at, whose first row's action is NaN. Its
// RAs batch as their own group in that one chunk, so each ActBatch call is
// one interval; the scalar Act, which only the reference run calls, is the
// embedded policy's.
type nanPolicy struct {
	*rl.DeployedPolicy
	calls, at int
}

func (p *nanPolicy) ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix {
	out := p.DeployedPolicy.ActBatch(states, ws)
	if p.calls == p.at {
		out.Row(0)[0] = math.NaN()
	}
	p.calls++
	return out
}

// TestBatchedPartialHistoryOnStepError pins the local half of the contract
// every engine shares — a failing period leaves no record: RA 70's policy
// emits a NaN action at period 2, interval 3, batched in its own group in
// one leg and in a second group with RA 71 in the other. At every worker
// count the run must return the same error, naming RA 70 and that
// interval, with a History and coordinator of exactly the two
// completed periods.
func TestBatchedPartialHistoryOnStepError(t *testing.T) {
	const ra, period, interval = 70, 2, 3
	cfg := execTestConfig(AlgoEdgeSlice)
	cfg.NumRAs = 2*chunkRAs + 3
	T := cfg.EnvTemplate.T
	wantErr := fmt.Sprintf("core: RA %d interval %d: netsim: NaN action", ra, period*T+interval)
	for _, kind := range []string{"paired", "batched"} {
		deploy := func() *System {
			s := deployedSystem(t, cfg)
			np := &nanPolicy{DeployedPolicy: s.agents[0].(*rl.DeployedPolicy), at: period*T + interval}
			agents := append([]rl.Agent(nil), s.agents...)
			agents[ra] = np
			if kind == "paired" {
				np.DeployedPolicy = secondPolicy(s)
				agents[ra+1] = np
			}
			if err := s.SetAgents(agents); err != nil {
				t.Fatal(err)
			}
			return s
		}
		ref := deploy()
		hRef := referenceRun(t, ref, period)
		for _, workers := range []int{1, 2, 4, cfg.NumRAs} {
			label := fmt.Sprintf("%s workers=%d", kind, workers)
			s := deploy()
			h := s.newRunHistory()
			err := s.RunPeriodsInto(NewBatchedExecutor(workers), h, 4)
			if err == nil || err.Error() != wantErr {
				t.Fatalf("%s: RunPeriodsInto returned %v, want %q", label, err, wantErr)
			}
			if h.Periods() != period || h.Intervals() != period*T {
				t.Errorf("%s: history holds %d periods and %d intervals, want %d and %d",
					label, h.Periods(), h.Intervals(), period, period*T)
			}
			requireSameRun(t, label, hRef, h)
			if it := s.Coordinator().Iterations(); it != period {
				t.Errorf("%s: coordinator ran %d iterations, want %d", label, it, period)
			}
		}
	}
}

// TestBatchedPersistentAcrossCalls exercises the scenario-runner calling
// pattern: one batched executor driving many RunPeriods(1) calls — reusing
// its cached batch plan — must match one serial RunPeriods(n) call.
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
		if err := s.RunPeriodsInto(e, h, 1); err != nil {
			t.Fatal(err)
		}
	}
	requireSameRun(t, "period-at-a-time", hRef, h)
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
