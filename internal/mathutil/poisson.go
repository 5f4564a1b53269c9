package mathutil

import (
	"math"
	"math/rand/v2"
)

// PoissonTableLen is the capacity of a Poisson sampler's CDF table: below
// λ = 30 the running sum stops changing within 86 entries.
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
// the least k with u < P(X ≤ k), read from a CDF table built whole when λ
// changes, from the bucket a guide (Chen and Asau's indexed search) names.
// λ ≥ 30 uses the normal approximation N(λ, λ) rounded to the nearest
// integer up to MaxInt; λ ≤ 0 gives 0, drawing nothing.
type Poisson struct {
	lambda float64
	cdf    []float64       // cdf[k] = P(X ≤ k) for lambda, to convergence; capacity PoissonTableLen
	guide  [guideLen]uint8 // guide[b] = least k with cdf[k] > b/guideLen
}

const guideLen = 64 // a power of two: u·guideLen and b/guideLen are exact

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
		p.build(lambda)
	}
	return p.search(float64(src.Uint64()>>11) * 0x1p-53)
}

// build fills the table by pₖ = pₖ₋₁·λ/k until the sum stops changing, then the guide.
//
//edgeslice:noalloc
func (p *Poisson) build(lambda float64) {
	c, last := p.cdf[:cap(p.cdf)], math.Exp(-lambda)
	n, sum := 1, last
	for c[0] = sum; n < len(c); n++ {
		next := float64(last*lambda) / float64(n)
		s := float64(sum + next)
		if s == sum {
			break
		}
		last, sum, c[n] = next, s, s
	}
	p.lambda, p.cdf = lambda, c[:n]
	for b, k := 0, 0; b < guideLen; b++ {
		for k < n && !(c[k] > float64(b)/guideLen) {
			k++
		}
		p.guide[b] = uint8(k)
	}
}

// search returns the least k with u < cdf[k] for u in [0, 1), or len(cdf)
// past the converged sum: u ≥ b/guideLen at b = ⌊u·guideLen⌋, so k ≥ guide[b].
func (p *Poisson) search(u float64) int {
	k := int(p.guide[int(u*guideLen)])
	for k < len(p.cdf) && !(u < p.cdf[k]) {
		k++
	}
	return k
}
