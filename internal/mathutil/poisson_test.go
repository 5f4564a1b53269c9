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
	complete := func(lambda float64) { c.Draw(src, rng, lambda) }
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

// linearPoisson is the linear-scan sampler the guide table replaced: the
// table grows by the recurrence only as far as the largest draw, and every
// scan starts at k = 0.
type linearPoisson struct {
	lambda, last float64
	cdf          []float64
}

func (p *linearPoisson) draw(src *rand.PCG, lambda float64) int {
	if lambda != p.lambda {
		p.lambda, p.last = lambda, math.Exp(-lambda)
		p.cdf = append(p.cdf[:0], p.last)
	}
	return p.search(float64(src.Uint64()>>11) * 0x1p-53)
}

func (p *linearPoisson) search(u float64) int {
	for k, c := range p.cdf {
		if u < c {
			return k
		}
	}
	n, sum := len(p.cdf), p.cdf[len(p.cdf)-1]
	for ; n < PoissonTableLen; n++ {
		next := float64(p.last*p.lambda) / float64(n)
		s := float64(sum + next)
		if s == sum {
			break
		}
		p.last, sum = next, s
		p.cdf = append(p.cdf, s)
		if u < s {
			return n
		}
	}
	return n
}

// TestPoissonGuideMatchesLinearScan draws from the guide-table sampler and
// the linear-scan reference on twin streams over a seeded λ grid in (0, 30),
// λ just below 30 and tiny λ, each rate held for a block of draws, then
// searches uniforms at and past each converged sum, where both return the
// table's length.
func TestPoissonGuideMatchesLinearScan(t *testing.T) {
	grid := rand.New(seededPCG(11))
	lambdas := []float64{math.Nextafter(30, 0), 1e-9, 1e-300}
	for range 400 {
		lambdas = append(lambdas, math.Nextafter(grid.Float64()*30, 30))
	}
	a, b := seededPCG(12), seededPCG(12)
	guided, linear := newPoisson(), linearPoisson{}
	past := 0 // uniforms searched at or past a converged sum below one
	for _, lambda := range lambdas {
		for i := 0; i < 500; i++ {
			if got, want := guided.Draw(a, nil, lambda), linear.draw(b, lambda); got != want {
				t.Fatalf("λ = %v draw %d: guide %d, linear %d", lambda, i, got, want)
			}
		}
		linear.search(math.Inf(1)) // complete the reference table
		if len(guided.cdf) != len(linear.cdf) {
			t.Fatalf("λ = %v: table of %d entries, linear %d", lambda, len(guided.cdf), len(linear.cdf))
		}
		for k, c := range guided.cdf {
			if c != linear.cdf[k] {
				t.Fatalf("λ = %v: cdf[%d] = %v, linear %v", lambda, k, c, linear.cdf[k])
			}
			for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
				if u < 1 && guided.search(u) != linear.search(u) {
					t.Fatalf("λ = %v u = %v: guide %d, linear %d", lambda, u, guided.search(u), linear.search(u))
				}
			}
		}
		sum := guided.cdf[len(guided.cdf)-1]
		for u := sum; u < 1; u = math.Nextafter(u, 1) {
			past++
			if got := guided.search(u); got != len(guided.cdf) || linear.search(u) != got {
				t.Fatalf("λ = %v u = %v past the converged sum %v: guide %d, linear %d, want %d",
					lambda, u, sum, got, linear.search(u), len(guided.cdf))
			}
		}
	}
	if *a != *b {
		t.Error("streams diverged after the draws")
	}
	if past == 0 {
		t.Error("no converged sum fell below one: nothing searched past it")
	}
	t.Logf("%d uniforms at or past a converged sum", past)
}
