package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// BenchmarkRunPeriods measures one Algorithm-1 period across RA counts and
// engines. The deployed policy is a paper-scale 2x128 actor so inference
// dominates the interval cost — the workload the batched engine exists
// for. The harness's measured engine numbers are in BENCH_34.json at the
// repository root.
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
			exec, err := NewExecutor(engine, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("ras=%d/engine=%s", ras, engine), func(b *testing.B) {
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
	}
}
