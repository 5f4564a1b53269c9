package core

import (
	"bytes"
	"fmt"
	"testing"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
	"edgeslice/internal/traffic"
)

// halfSecondAgents deploys a mixed system: even RAs share the system's
// policy, odd RAs a second deployed policy, so every chunk forwards two
// interleaved group spans.
func halfSecondAgents(t *testing.T, s *System) {
	t.Helper()
	agents := make([]rl.Agent, s.NumRAs())
	second := secondPolicy(s)
	for j := range agents {
		agents[j] = s.agents[0]
		if j%2 == 1 {
			agents[j] = second
		}
	}
	if err := s.SetAgents(agents); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedShardedStepMatchesSerial is the sharded-step leg of the
// determinism suite: with enough RAs for the step stage to fan out, the
// batched engine must record the serial engine's History and history-log
// bytes for every worker count — under baseline actions
// computed in-chunk, a shared batched policy, and a mixed system of two
// interleaved policy groups — in exact and streaming recording.
func TestBatchedShardedStepMatchesSerial(t *testing.T) {
	J := 2*chunkRAs + 2
	for _, kind := range []string{"taro", "edgeslice", "mixed"} {
		for _, window := range []int{0, 16} {
			cfg := execTestConfig(AlgoEdgeSlice)
			if kind == "taro" {
				cfg.Algo = AlgoTARO
			}
			cfg.NumRAs = J
			run := func(e Executor) (*History, []byte) {
				s := deployedSystem(t, cfg)
				if kind == "mixed" {
					halfSecondAgents(t, s)
				}
				var buf bytes.Buffer
				hlog, err := NewHistoryLog(telemetry.NewLogWriter(&buf), cfg.EnvTemplate.NumSlices, J, cfg.EnvTemplate.T)
				if err != nil {
					t.Fatal(err)
				}
				s.SetRecording(RecordOptions{StreamWindow: window, Log: hlog})
				h, err := s.RunPeriodsWith(e, 2)
				if err != nil {
					t.Fatal(err)
				}
				if err := hlog.Close(); err != nil {
					t.Fatal(err)
				}
				return h, buf.Bytes()
			}
			hRef, logRef := run(NewSerialExecutor())
			for _, workers := range []int{1, 2, 4, J} {
				label := fmt.Sprintf("%s window=%d workers=%d", kind, window, workers)
				e := NewBatchedExecutor(workers)
				h, log := run(e)
				requireSameRun(t, label, hRef, h)
				if !bytes.Equal(log, logRef) {
					t.Errorf("%s: history log differs from serial run", label)
				}
				if got := e.cachePlan.workers; (workers > 1) != (got > 1) {
					t.Errorf("%s: step stage ran on %d worker(s)", label, got)
				}
				if kind == "mixed" && len(e.cachePlan.spans) != 2*len(e.cachePlan.chunkErr) {
					t.Errorf("%s: %d group spans over %d chunks, want two per chunk", label, len(e.cachePlan.spans), len(e.cachePlan.chunkErr))
				}
			}
		}
	}
}

// TestWarmPeriodAllocsIndependentOfJ is the allocation gate of a warm
// period on the batched engine with streaming recording, for a baseline and
// for a shared batched policy. On one worker it is exactly the per-call
// streaming History (3 allocations: the History, its two record rings in
// one block, its running sums), at 64 RAs as at 512 and at two slices as at
// three. On four workers the period adds one goroutine closure per extra
// step worker (3), for the baseline as for the policy: the period's
// WaitGroup belongs to the plan and each worker forwards its chunks in its
// own workspace, so nothing else grows with the worker count.
func TestWarmPeriodAllocsIndependentOfJ(t *testing.T) {
	warmAllocs := func(algo Algorithm, slices, J, workers int) float64 {
		cfg := execTestConfig(algo)
		cfg.NumRAs = J
		for cfg.EnvTemplate.NumSlices < slices {
			cfg.EnvTemplate.NumSlices++
			cfg.EnvTemplate.Apps = append(cfg.EnvTemplate.Apps, netsim.HeavyTrafficApp)
			cfg.EnvTemplate.Sources = append(cfg.EnvTemplate.Sources, traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 37})
		}
		s := deployedSystem(t, cfg)
		s.SetRecording(RecordOptions{StreamWindow: 8})
		e := NewBatchedExecutor(workers)
		period := func() {
			if _, err := s.RunPeriodsWith(e, 1); err != nil {
				t.Fatal(err)
			}
		}
		period()
		return testing.AllocsPerRun(5, period)
	}
	const oneWorker, goroutines = 3, 3
	for _, slices := range []int{2, 3} {
		for _, algo := range []Algorithm{AlgoTARO, AlgoEdgeSlice} {
			small, large, sharded := warmAllocs(algo, slices, 64, 1), warmAllocs(algo, slices, 512, 1), warmAllocs(algo, slices, 512, 4)
			if small != oneWorker || large != oneWorker || sharded != oneWorker+goroutines {
				t.Errorf("%v, %d slices: warm period allocates %v times at 64 RAs, %v at 512 and %v at 512 on 4 workers; want %v, %v and %v",
					algo, slices, small, large, sharded, oneWorker, oneWorker, oneWorker+goroutines)
			}
		}
	}
}
