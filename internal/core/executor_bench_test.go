package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/traffic"
)

// BenchmarkRunPeriods measures one Algorithm-1 period across RA counts and
// engines. In the edgeslice legs the deployed policy is a paper-scale 2x128
// actor so inference dominates the interval cost — the workload the batched
// engine exists for. The taro leg is the bench harness's local-step-2048
// shape (no network: the RA step, record, merge and ADMM), so
//
//	go test ./internal/core -run '^$' -bench 'RunPeriods/.*taro' -cpuprofile cpu.out
//
// profiles that workload directly. The harness's measured engine numbers
// are in BENCH_34.json at the repository root.
func BenchmarkRunPeriods(b *testing.B) {
	for _, ras := range []int{8, 32, 128, 512, 2048} {
		cfg := DefaultConfig()
		cfg.Algo = AlgoEdgeSlice
		cfg.NumRAs = ras
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		actor := nn.NewMLP(rng, s.Env(0).StateDim(),
			nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: s.Env(0).ActionDim(), Act: nn.ActSigmoid},
		)
		if err := s.SetAgents([]rl.Agent{netPolicy{actor}}); err != nil {
			b.Fatal(err)
		}
		for _, engine := range []string{EngineSerial, EngineBatched} {
			benchPeriods(b, fmt.Sprintf("algo=edgeslice/ras=%d/engine=%s", ras, engine), s, engine, 0)
		}
	}

	// local-step-2048 at seed 1: variable traffic, streaming recording with
	// a 100-period window, three warm-up periods.
	cfg := DefaultConfig()
	cfg.Algo = AlgoTARO
	cfg.NumRAs = 2048
	cfg.Seed = 1
	cfg.EnvTemplate.Sources = []traffic.Source{
		traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 13},
		traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 25},
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Train(); err != nil {
		b.Fatal(err)
	}
	s.SetRecording(RecordOptions{StreamWindow: 100})
	benchPeriods(b, "algo=taro/ras=2048/engine=batched", s, EngineBatched, 3)
}

// benchPeriods runs warmup untimed periods of s on a fresh engine, then
// times one period per iteration under name.
func benchPeriods(b *testing.B, name string, s *System, engine string, warmup int) {
	exec, err := NewExecutor(engine, 0)
	if err != nil {
		b.Fatal(err)
	}
	if warmup > 0 {
		if _, err := s.RunPeriodsWith(exec, warmup); err != nil {
			b.Fatal(err)
		}
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := s.RunPeriodsWith(exec, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := exec.Close(); err != nil {
		b.Fatal(err)
	}
}
