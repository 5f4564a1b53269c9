package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/traffic"
)

// stepStreamHash is the sha256 of every field of 10,000 consecutive
// StepResults under seeded random actions (over-capacity and negative shares
// included), with slice 1's arrival rate wandering across the Poisson
// sampler's λ = 30 branch point and one mid-run capacity change, followed by
// the environment RNG's next draw.
func stepStreamHash(t *testing.T, seed int64, trainCoord bool) string {
	t.Helper()
	cfg := DefaultExperimentConfig()
	cfg.Seed = seed
	cfg.TrainCoordRandom = trainCoord
	cfg.Sources[1] = traffic.VariableSource{Lo: 4, Hi: 34, BlockLen: 7, Seed: 23 + seed}
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Reset()
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	n := func(v int) { u(uint64(v)) }
	rng := rand.New(rand.NewSource(seed + 100))
	action := make([]float64, env.ActionDim())
	var res StepResult
	for step := 0; step < 10000; step++ {
		if step == 5000 {
			if err := env.SetCapacityScale(0.5); err != nil {
				t.Fatal(err)
			}
		}
		for i := range action {
			action[i] = rng.Float64()*1.7 - 0.2
		}
		if err := env.StepInto(action, &res); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.NumSlices; i++ {
			f(res.Perf[i])
			f(res.ServiceTimes[i])
			n(res.QueueLens[i])
			n(res.Served[i])
			n(res.Arrived[i])
			for _, x := range res.Effective[i] {
				f(x)
			}
		}
		f(res.Violation)
		f(res.Reward)
	}
	n(int(env.rng.Int63()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestStepStreamPinned pins the StepResult stream to the hashes computed at
// commit 51bc0e0, before arrivals cached exp(−λ) and the queue metric came
// from a table: StepInto's optimisations must not move one bit of it.
func TestStepStreamPinned(t *testing.T) {
	want := map[int64][2]string{
		1: {"ef491c88c0d641e50179fef0255a714f896ebc87301747d8e690056299d0b13f", "67494da4ea00c647a52f328d5a90b2af634cf0838e9f8a24435afd478d4dfb00"},
		2: {"34a7145846764bc78a821a220b17a749ddf4b5f8df54de71782325a9ada22d40", "f3216ecc6b82437336df1465c066167305f24867ebac68c2f8bb4f1d1f01e969"},
		3: {"a9f25d11db3829de219837a48aa41abbd49a6761c4beb6394762eea4922b9c07", "d2e294bb265996c11efdd016d06e2d2e77d7dd82da95cf71b4d735653bcf64c3"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for k, trainCoord := range []bool{false, true} {
			if got := stepStreamHash(t, seed, trainCoord); got != want[seed][k] {
				t.Errorf("seed %d TrainCoordRandom %v: stream hash %s, want %s", seed, trainCoord, got, want[seed][k])
			}
		}
	}
}

// poissonRef is the sampler as it stood before the cache: exp(−λ) computed on
// every draw.
func poissonRef(rng *rand.Rand, lambda float64) int {
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
	l := math.Exp(-lambda)
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

// TestPoissonCacheMatchesPoisson draws from a reused PoissonCache, from
// mathutil.Poisson and from the pre-cache sampler on triplet seeded RNGs, over
// rate sequences that hold for a block, change every call, cross zero and
// cross the λ = 30 branch point: equal variates, and the generators must sit
// at the same point of their streams afterwards.
func TestPoissonCacheMatchesPoisson(t *testing.T) {
	below30 := math.Nextafter(30, 0)
	sequences := map[string]func(i int, r *rand.Rand) float64{
		"block-constant": func(i int, _ *rand.Rand) float64 { return 6 + float64(i/10%9) },
		"every-call":     func(_ int, r *rand.Rand) float64 { return r.Float64() * 29 },
		"crosses-zero":   func(i int, r *rand.Rand) float64 { return float64(i%7-3) * r.Float64() },
		"crosses-30": func(i int, r *rand.Rand) float64 {
			return []float64{29, below30, 30, 31.5, below30, below30, 12, 30}[i%8]
		},
		"repeats-across-branches": func(i int, _ *rand.Rand) float64 {
			return []float64{10, 0, 10, 35, 10, -2, 10.5, 10}[i%8]
		},
	}
	for name, next := range sequences {
		for seed := int64(1); seed <= 3; seed++ {
			a, b, c := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			lambdas := rand.New(rand.NewSource(seed + 50))
			var cache mathutil.PoissonCache
			for i := 0; i < 5000; i++ {
				lambda := next(i, lambdas)
				got, want, ref := cache.Draw(a, lambda), mathutil.Poisson(b, lambda), poissonRef(c, lambda)
				if got != want || got != ref {
					t.Fatalf("%s seed %d draw %d (λ = %v): cached %d, Poisson %d, reference %d", name, seed, i, lambda, got, want, ref)
				}
			}
			if x, y, z := a.Int63(), b.Int63(), c.Int63(); x != y || x != z {
				t.Errorf("%s seed %d: generators diverged after the draws", name, seed)
			}
		}
	}
}

// TestPerfTableMatchesQueuePerf requires the per-environment table to hold
// QueuePerf(α)'s exact bits at every queue length the ingress drop allows,
// for each α of the Fig. 11a sweep, a longer queue to get the function's
// value, and the service-time metric to have no table.
func TestPerfTableMatchesQueuePerf(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 3} {
		cfg := DefaultExperimentConfig()
		cfg.Alpha = alpha
		env, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(env.perfTab) != cfg.MaxQueue+1 {
			t.Fatalf("α = %v: table has %d entries, want %d", alpha, len(env.perfTab), cfg.MaxQueue+1)
		}
		want := QueuePerf(alpha)
		for l, got := range env.perfTab {
			if w := want(float64(l), 0); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("α = %v, l = %d: table %v, QueuePerf %v", alpha, l, got, w)
			}
		}
	}
	// A backlog past the table (only reachable by going around the ingress
	// drop) falls back to the function itself.
	cfg := DefaultExperimentConfig()
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Queue(0).Arrive(cfg.MaxQueue+25, 0)
	res, err := env.StepInterval(make([]float64, env.ActionDim()))
	if err != nil {
		t.Fatal(err)
	}
	if l := res.QueueLens[0]; l <= cfg.MaxQueue || res.Perf[0] != QueuePerf(cfg.Alpha)(float64(l), 0) {
		t.Errorf("queue length %d past the table: perf %v, want %v", l, res.Perf[0], QueuePerf(cfg.Alpha)(float64(l), 0))
	}
	cfg.Perf = PerfServiceTime
	if env, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if len(env.perfTab) != 0 {
		t.Errorf("service-time metric built a %d-entry queue table", len(env.perfTab))
	}
}
