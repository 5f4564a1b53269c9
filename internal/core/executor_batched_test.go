package core

import (
	"fmt"
	"math"
	"testing"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

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
				np.DeployedPolicy = seededPolicy(s.Env(0), 11) // a second policy group
				agents[ra+1] = np
			}
			if err := s.SetAgents(agents); err != nil {
				t.Fatal(err)
			}
			return s
		}
		hRef := NewHistory(cfg.EnvTemplate.NumSlices, cfg.NumRAs, T)
		oracleRun(t, cfg, deploy().agents, period, nil, hRef, nil)
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
