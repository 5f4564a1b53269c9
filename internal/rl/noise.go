package rl

import "math/rand"

// GaussianNoise is the decaying exploration noise of Sec. VI-A: samples
// start from N(0, Std²) and the standard deviation decays by Decay per
// update step, floored at Min.
type GaussianNoise struct {
	Std   float64 // current standard deviation
	Decay float64 // multiplicative decay per step (paper: 0.9999)
	Min   float64 // floor to keep a little exploration forever
}

// Sample returns a noise vector of length dim and decays the schedule.
func (g *GaussianNoise) Sample(rng *rand.Rand, dim int) []float64 {
	out := make([]float64, dim)
	for i := range out {
		out[i] = rng.NormFloat64() * g.Std
	}
	g.Std *= g.Decay
	if g.Std < g.Min {
		g.Std = g.Min
	}
	return out
}
