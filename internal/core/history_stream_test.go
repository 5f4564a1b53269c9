package core

import (
	"math"
	"math/rand"
	"testing"

	"edgeslice/internal/netsim"
)

// synthRecords feeds n intervals (and n/T periods) of deterministic
// synthetic data into every history in hs, identically.
func synthRecords(rng *rand.Rand, n int, hs ...*History) {
	I := hs[0].NumSlices
	J := hs[0].NumRAs
	T := hs[0].T
	for t := 0; t < n; t++ {
		slicePerf := make([]float64, I)
		usage := make([][]float64, I)
		var sysPerf float64
		for i := range slicePerf {
			slicePerf[i] = rng.NormFloat64() * 10
			sysPerf += slicePerf[i]
			usage[i] = make([]float64, netsim.NumResources)
			for k := range usage[i] {
				usage[i][k] = rng.Float64()
			}
		}
		violation := 0.0
		if rng.Intn(4) == 0 {
			violation = rng.Float64()
		}
		for _, h := range hs {
			h.AddInterval(sysPerf, slicePerf, usage, violation)
		}
		if (t+1)%T == 0 {
			perf := make([][]float64, I)
			sla := make([]bool, I)
			for i := range perf {
				perf[i] = make([]float64, J)
				for j := range perf[i] {
					perf[i][j] = rng.NormFloat64()
				}
				sla[i] = rng.Intn(3) > 0
			}
			primal, dual := rng.Float64(), rng.Float64()
			for _, h := range hs {
				h.AddPeriod(perf, sla, primal, dual)
			}
		}
	}
}

// TestStreamingMatchesExactBitwise pins the equivalence contract: every
// summary accessor answers bit-identically in streaming mode whenever the
// ring retains the requested window (or the window covers the whole run).
func TestStreamingMatchesExactBitwise(t *testing.T) {
	const (
		I, J, T  = 2, 3, 10
		window   = 64
		nSamples = 500 // > window, so the ring wraps
	)
	exact := NewHistory(I, J, T)
	stream := NewStreamingHistory(I, J, T, window)
	synthRecords(rand.New(rand.NewSource(11)), nSamples, exact, stream)

	if exact.Intervals() != stream.Intervals() || exact.Periods() != stream.Periods() {
		t.Fatalf("counts: exact %d/%d, stream %d/%d",
			exact.Intervals(), exact.Periods(), stream.Intervals(), stream.Periods())
	}

	// lastN = 0 (whole run) and every lastN the ring retains.
	for _, lastN := range []int{0, 1, 10, window} {
		we, err := exact.MeanSystemPerf(lastN)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := stream.MeanSystemPerf(lastN)
		if err != nil {
			t.Fatal(err)
		}
		if we != ws {
			t.Errorf("MeanSystemPerf(%d): exact %v, stream %v", lastN, we, ws)
		}
		for i := 0; i < I; i++ {
			for k := 0; k < netsim.NumResources; k++ {
				ue, err := exact.MeanUsage(i, k, lastN)
				if err != nil {
					t.Fatal(err)
				}
				us, err := stream.MeanUsage(i, k, lastN)
				if err != nil {
					t.Fatal(err)
				}
				if ue != us {
					t.Errorf("MeanUsage(%d,%d,%d): exact %v, stream %v", i, k, lastN, ue, us)
				}
			}
		}
		re, err := exact.UsageRatio(0, 1, lastN)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := stream.UsageRatio(0, 1, lastN)
		if err != nil {
			t.Fatal(err)
		}
		if re != rs {
			t.Errorf("UsageRatio(%d): exact %v, stream %v", lastN, re, rs)
		}
	}
	for _, lastP := range []int{0, 1, 5, 20} {
		se, err := exact.SLASatisfactionRate(lastP)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := stream.SLASatisfactionRate(lastP)
		if err != nil {
			t.Fatal(err)
		}
		if se != ss {
			t.Errorf("SLASatisfactionRate(%d): exact %v, stream %v", lastP, se, ss)
		}
	}
	ve, err := exact.ViolationRate()
	if err != nil {
		t.Fatal(err)
	}
	vs, err := stream.ViolationRate()
	if err != nil {
		t.Fatal(err)
	}
	if ve != vs {
		t.Errorf("ViolationRate: exact %v, stream %v", ve, vs)
	}
	pe, de := exact.LastResiduals()
	ps, ds := stream.LastResiduals()
	if pe != ps || de != ds {
		t.Errorf("LastResiduals: exact %v/%v, stream %v/%v", pe, de, ps, ds)
	}
}

// TestStreamingQuantileWithinTolerance checks the P² estimate of the
// per-interval system performance against the exact quantile.
func TestStreamingQuantileWithinTolerance(t *testing.T) {
	const I, J, T = 2, 2, 10
	exact := NewHistory(I, J, T)
	stream := NewStreamingHistory(I, J, T, 128)
	synthRecords(rand.New(rand.NewSource(5)), 20000, exact, stream)

	for _, q := range StreamQuantiles {
		we, err := exact.SystemPerfQuantile(q)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := stream.SystemPerfQuantile(q)
		if err != nil {
			t.Fatal(err)
		}
		// Tolerance: 5% of the exact interquantile spread (p95 - p5).
		p5, _ := exact.SystemPerfQuantile(0.05)
		p95, _ := exact.SystemPerfQuantile(0.95)
		if tol := 0.05 * (p95 - p5); math.Abs(we-ws) > tol {
			t.Errorf("SystemPerfQuantile(%g): exact %v, stream %v (tol %v)", q, we, ws, tol)
		}
	}
	// Untracked quantiles are refused in streaming mode.
	if _, err := stream.SystemPerfQuantile(0.25); err == nil {
		t.Error("untracked quantile should error in streaming mode")
	}
}

// TestStreamingFallbackApproximation pins the documented contract for
// window < lastN < run length: the full-run mean is returned.
func TestStreamingFallbackApproximation(t *testing.T) {
	const I, J, T, window = 1, 1, 10, 16
	stream := NewStreamingHistory(I, J, T, window)
	var sum float64
	for t2 := 0; t2 < 100; t2++ {
		v := float64(t2)
		sum += v
		stream.AddInterval(v, []float64{v}, [][]float64{{0, 0, 0}}, 0)
	}
	got, err := stream.MeanSystemPerf(50) // window < 50 < 100
	if err != nil {
		t.Fatal(err)
	}
	if want := sum / 100; got != want {
		t.Errorf("fallback mean = %v, want full-run %v", got, want)
	}
}

// TestSummaryMatchesExactBitwise: a summary History fed the records an
// exact one is answers MeanSystemPerf(Intervals()/2) and
// SLASatisfactionRate(0) bit for bit, at odd and even interval counts (an
// odd one tells the last half [n − n/2, n) from [n/2, n)), refuses every
// other question, and rejects a record of the wrong shape unstored.
func TestSummaryMatchesExactBitwise(t *testing.T) {
	const I, J = 3, 2
	rng := rand.New(rand.NewSource(5))
	answers := func(h *History) [2]uint64 {
		t.Helper()
		ssp, err := h.MeanSystemPerf(h.Intervals() / 2)
		if err != nil {
			t.Fatal(err)
		}
		sla, err := h.SLASatisfactionRate(0)
		if err != nil {
			t.Fatal(err)
		}
		return [2]uint64{math.Float64bits(ssp), math.Float64bits(sla)}
	}
	for _, T := range []int{1, 3, 10} {
		for _, periods := range []int{1, 7, 100} {
			exact, summary := NewHistory(I, J, T), NewSummaryHistory(I, J, T, periods)
			synthRecords(rng, periods*T, exact, summary)
			if summary.Intervals() != exact.Intervals() || summary.Periods() != exact.Periods() {
				t.Fatalf("T=%d, %d periods: summary counts %d/%d records, exact %d/%d", T, periods,
					summary.Intervals(), summary.Periods(), exact.Intervals(), exact.Periods())
			}
			if got, want := answers(summary), answers(exact); got != want {
				t.Errorf("T=%d, %d periods: summary answers bits %x, exact %x", T, periods, got, want)
			}
			var refused []error
			if n := summary.Intervals(); n > 1 {
				_, err := summary.MeanSystemPerf(n/2 + 1)
				refused = append(refused, err)
			}
			if periods > 1 {
				_, err := summary.SLASatisfactionRate(1)
				refused = append(refused, err)
			}
			_, errU := summary.MeanUsage(0, 0, 0)
			_, errR := summary.UsageRatio(0, 1, 0)
			_, errQ := summary.SystemPerfQuantile(0.5)
			_, errV := summary.ViolationRate()
			for i, err := range append(refused, errU, errR, errQ, errV) {
				if err == nil {
					t.Errorf("T=%d, %d periods: question %d of a summary History answered", T, periods, i)
				}
			}
			if primal, _ := summary.LastResiduals(); len(summary.IntervalColumn(0)) != 0 || !math.IsNaN(primal) {
				t.Errorf("T=%d, %d periods: a summary History returned records", T, periods)
			}
		}
	}
	summary := NewSummaryHistory(I, J, 1, 1)
	usage := [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	if err := summary.AddInterval(1, []float64{1, 0}, usage, 0); err == nil {
		t.Error("a summary History took an interval record of 2 slices, want 3")
	}
	if err := summary.AddPeriod([][]float64{{1}, {1}, {1}}, []bool{true, true, true}, 0, 0); err == nil {
		t.Error("a summary History took a period record of 1 RA, want 2")
	}
	if summary.Intervals() != 0 || summary.Periods() != 0 {
		t.Errorf("misshapen records were stored: %d intervals, %d periods", summary.Intervals(), summary.Periods())
	}
}
