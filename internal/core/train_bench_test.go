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
