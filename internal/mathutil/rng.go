package mathutil

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic *rand.Rand seeded with seed. Every
// stochastic component in the repository takes an explicit RNG so that
// experiments are reproducible and tests are hermetic; we never use the
// global math/rand source.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) //nolint:gosec // simulation, not crypto
}

// PoissonCache draws Poisson(lambda) variates using Knuth's algorithm for
// small lambda and a normal approximation for large lambda (>= 30) to avoid
// the exponential underflow and O(lambda) cost of the exact method. It
// remembers exp(−lambda) from the previous call, so a caller whose rate
// holds for a block of intervals pays for the exponential once per change.
// The zero value is ready to use.
type PoissonCache struct {
	lambda, expNeg float64
}

// Draw returns a Poisson(lambda) variate.
func (c *PoissonCache) Draw(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda >= 30 {
		v := rng.NormFloat64()*math.Sqrt(lambda) + lambda
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	if lambda != c.lambda {
		c.lambda, c.expNeg = lambda, math.Exp(-lambda)
	}
	l := c.expNeg
	k := 0
	p := 1.0
	for {
		k++
		p *= rng.Float64()
		if p <= l {
			return k - 1
		}
	}
}
