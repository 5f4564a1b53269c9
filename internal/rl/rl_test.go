package rl

import (
	"math/rand/v2"
	"testing"

	"edgeslice/internal/mathutil"
)

func TestAgentFunc(t *testing.T) {
	called := false
	var a Agent = AgentFunc(func(s []float64) []float64 {
		called = true
		return s
	})
	out := a.Act([]float64{1, 2})
	if !called || len(out) != 2 {
		t.Error("AgentFunc should delegate")
	}
}

// A trainer and the environments of a system share one seed: netsim seeds
// RA j's PCG from Seed + j·7919 through mathutil.SeedPCG. The trainer's
// generator must start on none of those streams.
func TestTrainerPCGDiffersFromEnvStreams(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 42} {
		trainer := TrainerPCG(seed)
		first := trainer.Uint64()
		for j := int64(0); j < 64; j++ {
			var env rand.PCG
			mathutil.SeedPCG(&env, seed+j*7919)
			if env.Uint64() == first {
				t.Errorf("seed %d: the trainer draws RA %d's stream", seed, j)
			}
		}
	}
}
