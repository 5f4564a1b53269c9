package core

import "testing"

// BenchmarkTrainDDPG is the benchmark harness's train-ddpg op at seed 1:
// iteration i builds a fresh default system (2 RAs, one shared DDPG agent,
// 2x32 actor and critic, batch 64) at seed 1+i and trains it for 2,000
// steps. trainings/s is the harness's ops_per_s, so
//
//	go test ./internal/core -run '^$' -bench TrainDDPG -cpuprofile cpu.out
//
// profiles that workload.
func BenchmarkTrainDDPG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.TrainSteps = 2000
		cfg.Seed = 1 + int64(i)
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Train(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trainings/s")
}

// TestTrainAllocsBounded gates the train-ddpg workload's allocations: one
// 2000-step System.Train of DefaultConfig(), system construction included,
// makes at most 400. The interaction step allocates nothing, so what is
// left is setup (networks, optimizers, the replay rows reserved once) and
// does not grow with the steps.
func TestTrainAllocsBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainSteps = 2000
	allocs := testing.AllocsPerRun(1, func() {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Train(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Errorf("a %d-step System.Train allocates %v objects, want at most 400", cfg.TrainSteps, allocs)
	} else {
		t.Logf("a %d-step System.Train: %v allocations", cfg.TrainSteps, allocs)
	}
}
