package core

import (
	"testing"

	"edgeslice/internal/netsim"
	"edgeslice/internal/traffic"
)

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
