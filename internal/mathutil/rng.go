package mathutil

import "math/rand"

// NewRNG returns a deterministic *rand.Rand seeded with seed. Every
// stochastic component in the repository takes an explicit RNG so that
// experiments are reproducible and tests are hermetic; we never use the
// global math/rand source.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) //nolint:gosec // simulation, not crypto
}
