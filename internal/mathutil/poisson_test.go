package mathutil

import (
	"math"
	"math/rand/v2"
	"testing"
)

func newPoisson() Poisson { return NewPoisson(make([]float64, PoissonTableLen)) }

func seededPCG(seed int64) *rand.PCG {
	var p rand.PCG
	SeedPCG(&p, seed)
	return &p
}

func TestPoisson(t *testing.T) {
	src := seededPCG(7)
	rng := rand.New(src)
	c := newPoisson()
	// Sample mean should approach lambda for both regimes.
	for _, lambda := range []float64{3, 50} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(c.Draw(src, rng, lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.2 {
			t.Errorf("Poisson(%v) sample mean %v", lambda, mean)
		}
	}
}

// TestPoissonNonPositiveDrawsNothing: λ ≤ 0 (and NaN) give 0 and leave the
// stream where it was, while a table draw takes exactly one Uint64.
func TestPoissonNonPositiveDrawsNothing(t *testing.T) {
	src := seededPCG(3)
	rng := rand.New(src)
	c := newPoisson()
	for _, lambda := range []float64{0, -1, math.Inf(-1), math.NaN()} {
		before := *src
		if got := c.Draw(src, rng, lambda); got != 0 {
			t.Errorf("λ = %v: drew %d, want 0", lambda, got)
		}
		if *src != before {
			t.Errorf("λ = %v consumed a uniform", lambda)
		}
	}
	for _, lambda := range []float64{0.5, 10, math.Nextafter(30, 0)} {
		want := *src
		want.Uint64()
		c.Draw(src, rng, lambda)
		if *src != want {
			t.Errorf("λ = %v: a table draw must consume exactly one uniform", lambda)
		}
	}
}

// TestPoissonReuseMatchesFresh draws from one reused sampler and from a fresh
// one per draw on twin streams, over rate sequences that hold for a block,
// change every call, cross zero and cross the λ = 30 branch point: a table
// left over from the previous rate would give a different variate.
func TestPoissonReuseMatchesFresh(t *testing.T) {
	below30 := math.Nextafter(30, 0)
	sequences := map[string]func(i int, r *rand.Rand) float64{
		"block-constant": func(i int, _ *rand.Rand) float64 { return 6 + float64(i/10%9) },
		"every-call":     func(_ int, r *rand.Rand) float64 { return r.Float64() * 29 },
		"crosses-zero":   func(i int, r *rand.Rand) float64 { return float64(i%7-3) * r.Float64() },
		"crosses-30": func(i int, _ *rand.Rand) float64 {
			return []float64{29, below30, 30, 31.5, below30, below30, 12, 30}[i%8]
		},
		"repeats-across-branches": func(i int, _ *rand.Rand) float64 {
			return []float64{10, 0, 10, 35, 10, -2, 10.5, 10}[i%8]
		},
	}
	for name, next := range sequences {
		for seed := int64(1); seed <= 3; seed++ {
			a, b := seededPCG(seed), seededPCG(seed)
			ra, rb := rand.New(a), rand.New(b)
			lambdas := rand.New(seededPCG(seed + 50))
			reused := newPoisson()
			for i := 0; i < 5000; i++ {
				lambda := next(i, lambdas)
				fresh := newPoisson()
				if got, want := reused.Draw(a, ra, lambda), fresh.Draw(b, rb, lambda); got != want {
					t.Fatalf("%s seed %d draw %d (λ = %v): reused %d, fresh %d", name, seed, i, lambda, got, want)
				}
			}
			if *a != *b {
				t.Errorf("%s seed %d: streams diverged after the draws", name, seed)
			}
		}
	}
}

// TestPoissonTableFitsBelow30: every rate the table serves completes its
// table, where the running sum stops changing, inside the buffer, with the
// sum at one to rounding.
func TestPoissonTableFitsBelow30(t *testing.T) {
	src := seededPCG(5)
	rng := rand.New(src)
	c := newPoisson()
	complete := func(lambda float64) {
		c.Draw(src, rng, lambda)
		c.extend(math.Inf(1)) // no entry exceeds u: grow until the sum stops
	}
	longest := 0
	for lambda := 0.01; lambda < 30; lambda += 0.01 {
		complete(lambda)
		longest = max(longest, len(c.cdf))
	}
	complete(math.Nextafter(30, 0))
	longest = max(longest, len(c.cdf))
	if longest >= PoissonTableLen {
		t.Fatalf("a rate below 30 filled its %d-entry table", PoissonTableLen)
	}
	if s := c.cdf[len(c.cdf)-1]; math.Abs(s-1) > 1e-13 {
		t.Errorf("λ just below 30: table sums to %v", s)
	}
	t.Logf("longest table below λ = 30: %d entries", longest)
}
