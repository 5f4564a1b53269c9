package mathutil

import (
	"math"
	"math/rand/v2"
)

// PoissonTableLen is the capacity of a Poisson sampler's CDF table. Below
// λ = 30, where the table is used, the running sum stops changing in double
// precision within 86 entries, so a table always ends by convergence.
const PoissonTableLen = 96

// SeedPCG seeds p from seed through two SplitMix64 steps, one per state
// word, so that neighbouring seeds start at unrelated points of the stream.
func SeedPCG(p *rand.PCG, seed int64) {
	x := uint64(seed)
	hi := splitMix64(&x)
	p.Seed(hi, splitMix64(&x))
}

// splitMix64 advances the SplitMix64 state x and returns its next output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Poisson draws Poisson(λ) variates by inversion: one 53-bit uniform u, then
// the least k with u < P(X ≤ k), read from a CDF table. The table restarts
// only when λ changes, so a caller whose rate holds for a block of draws
// pays one e^−λ per block, and it grows by the recurrence only as far as
// the block's largest draw. λ ≥ 30 uses the normal approximation N(λ, λ)
// rounded to the nearest integer up to MaxInt; λ ≤ 0 gives 0, drawing nothing.
type Poisson struct {
	lambda float64
	last   float64   // P(X = len(cdf)−1), where the recurrence resumes
	cdf    []float64 // cdf[k] = P(X ≤ k) for lambda; capacity PoissonTableLen
}

// NewPoisson returns a sampler whose table lives in buf, which must hold at
// least PoissonTableLen entries and is the sampler's from then on.
func NewPoisson(buf []float64) Poisson {
	return Poisson{cdf: buf[:0:PoissonTableLen]}
}

// Draw returns a Poisson(lambda) variate. Below λ = 30 it consumes exactly
// one src.Uint64; from 30 up it draws norm.NormFloat64, where norm must read
// from src.
//
//edgeslice:noalloc
func (p *Poisson) Draw(src *rand.PCG, norm *rand.Rand, lambda float64) int {
	if !(lambda > 0) {
		return 0
	}
	if lambda >= 30 {
		// Round half up, clamping in float: int() past MaxInt is undefined.
		switch v := float64(norm.NormFloat64()*math.Sqrt(lambda)) + lambda + 0.5; {
		case v < 1:
			return 0
		case v < float64(math.MaxInt):
			return int(v)
		}
		return math.MaxInt
	}
	if lambda != p.lambda {
		p.lambda, p.last = lambda, math.Exp(-lambda)
		p.cdf = p.cdf[:1]
		p.cdf[0] = p.last
	}
	u := float64(src.Uint64()>>11) * 0x1p-53
	for k, c := range p.cdf {
		if u < c {
			return k
		}
	}
	return p.extend(u)
}

// extend appends cdf entries by pₖ = pₖ₋₁·λ/k until one exceeds u and
// returns its k. If the running sum stops changing first (rounding can
// leave it short of one), no later term can move it: the table is complete
// and extend returns its length.
//
//edgeslice:noalloc
func (p *Poisson) extend(u float64) int {
	c := p.cdf[:cap(p.cdf)]
	n, sum := len(p.cdf), p.cdf[len(p.cdf)-1]
	for ; n < len(c); n++ {
		next := float64(p.last*p.lambda) / float64(n)
		s := float64(sum + next)
		if s == sum {
			break
		}
		p.last, sum, c[n] = next, s, s
		if u < s {
			p.cdf = c[:n+1]
			return n
		}
	}
	p.cdf = c[:n]
	return n
}
