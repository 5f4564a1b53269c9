package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/traffic"
)

// stepStreamHash is the sha256 of every field of 10,000 consecutive
// StepResults under seeded random actions (over-capacity and negative shares
// included), with slice 1's arrival rate wandering across the Poisson
// sampler's λ = 30 branch point and one mid-run capacity change, followed by
// the environment stream's next draw.
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
	rng := mathutil.NewRNG(seed + 100)
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
	u(env.pcg.Uint64())
	return hex.EncodeToString(h.Sum(nil))
}

// TestStepStreamPinned pins the StepResult stream across commits. The hashes
// were re-derived once when the environment moved from a math/rand source
// and Knuth's product-of-uniforms Poisson sampler to a SplitMix64-seeded PCG
// stream and one-uniform CDF inversion: different generator, different
// variates. Before that they had held since commit 51bc0e0, through the
// cached exp(−λ) and the queue-metric table. StepInto's optimisations must
// not move one bit of them.
func TestStepStreamPinned(t *testing.T) {
	want := map[int64][2]string{
		1: {"6e8ea91f3b3e795569d23a5c4fc8b23674251e968bd678abe25e4c3c28b55b12", "2a74c128160fbe6f24123099464b0a028bdff7419561e263b64a103990f7640a"},
		2: {"08c60618c517ef7df99f6daab96fcbd4e97097febfcaab8a958875da977e35de", "a63a105a75936ecadf54f2e52d8393e8000d6c0acfd9dad275573c2937acebe5"},
		3: {"ec2cc76821a3a813a52fd618a029042bd26d999c946b668c4ed6b032e5c62dc0", "2a2d31e0b101bafa8d46aeef289341949606f3866e5517ad94a5eeb18538f695"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for k, trainCoord := range []bool{false, true} {
			if got := stepStreamHash(t, seed, trainCoord); got != want[seed][k] {
				t.Errorf("seed %d TrainCoordRandom %v: stream hash %s, want %s", seed, trainCoord, got, want[seed][k])
			}
		}
	}
}

// TestPoissonChiSquare checks the inversion sampler against the Poisson pmf
// with a seeded χ² goodness-of-fit test over a rate grid up to just below
// the λ = 30 cut-over (bins merged until each expects at least 5 draws,
// critical value at p = 10⁻⁴), and the normal branch above it by its mean
// and variance.
func TestPoissonChiSquare(t *testing.T) {
	const n = 200000
	var src rand.PCG
	mathutil.SeedPCG(&src, 17)
	rng := rand.New(&src)
	for _, lambda := range []float64{0.5, 3, 6, 10, 14, 20, math.Nextafter(30, 0)} {
		p := mathutil.NewPoisson(make([]float64, mathutil.PoissonTableLen))
		counts := make([]int, 4*int(lambda)+40)
		for i := 0; i < n; i++ {
			k := p.Draw(&src, rng, lambda)
			counts[min(k, len(counts)-1)]++
		}
		chi2, df := poissonChi2(counts, lambda, n)
		crit, report := chi2Critical(df), t.Logf
		if chi2 > crit {
			report = t.Errorf
		}
		report("λ = %v: χ² = %.1f over %d degrees of freedom, critical %.1f", lambda, chi2, df, crit)
	}
	for _, lambda := range []float64{30, 45} {
		p := mathutil.NewPoisson(make([]float64, mathutil.PoissonTableLen))
		var sum, sq float64
		for i := 0; i < n; i++ {
			k := float64(p.Draw(&src, rng, lambda))
			sum += k
			sq += k * k
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05 || math.Abs(variance-lambda) > 0.02*lambda {
			t.Errorf("λ = %v: mean %v, variance %v", lambda, mean, variance)
		}
	}
}

// poissonChi2 is Pearson's statistic of counts (the last one open-ended)
// against Poisson(lambda), merging bins from each end until every bin
// expects at least five of the n draws, and its degrees of freedom.
func poissonChi2(counts []int, lambda float64, n int) (chi2 float64, df int) {
	var obs, exp []float64
	var o, e, cum float64
	for k, c := range counts {
		lg, _ := math.Lgamma(float64(k + 1))
		pk := math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
		if k == len(counts)-1 {
			pk = 1 - cum
		}
		cum += pk
		o += float64(c)
		e += pk * float64(n)
		if e >= 5 {
			obs, exp = append(obs, o), append(exp, e)
			o, e = 0, 0
		}
	}
	if len(exp) > 0 { // fold a short tail into the last full bin
		obs[len(obs)-1] += o
		exp[len(exp)-1] += e
	}
	for i := range obs {
		d := obs[i] - exp[i]
		chi2 += d * d / exp[i]
	}
	return chi2, len(obs) - 1
}

// chi2Critical is the χ² quantile at 1 − 10⁻⁴ for df degrees of freedom, by
// the Wilson–Hilferty approximation.
func chi2Critical(df int) float64 {
	const z = 3.719 // standard normal quantile at 1 − 10⁻⁴
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
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
	env.queues[0].Arrive(cfg.MaxQueue + 25)
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
