package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
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

// TestReserveMatchesGrownHistoryLog: a History reserved for n periods holds
// them without growing, and records the same fields and history-log bytes
// as one that grows — also when the run goes on past n.
func TestReserveMatchesGrownHistoryLog(t *testing.T) {
	const I, J, T, n = 3, 2, 4, 5
	rng := rand.New(rand.NewSource(3))
	grown, reserved := NewHistory(I, J, T), NewHistory(I, J, T)
	reserved.Reserve(n)
	grid := func(rows, cols int) [][]float64 {
		g := make([][]float64, rows)
		for i := range g {
			g[i] = make([]float64, cols)
			for k := range g[i] {
				g[i][k] = rng.NormFloat64()
			}
		}
		return g
	}
	record := func(periods int) {
		for p := 0; p < periods; p++ {
			for k := 0; k < T; k++ {
				sys, slice, usage, viol := rng.Float64(), grid(1, I)[0], grid(I, netsim.NumResources), rng.Float64()
				grown.AddInterval(sys, slice, usage, viol)
				reserved.AddInterval(sys, slice, usage, viol)
			}
			perf, sla, primal, dual := grid(I, J), []bool{true, false, rng.Float64() < 0.5}, rng.Float64(), rng.Float64()
			grown.AddPeriod(perf, sla, primal, dual)
			reserved.AddPeriod(perf, sla, primal, dual)
		}
	}
	check := func(stage string) {
		t.Helper()
		if !reflect.DeepEqual(grown, reserved) {
			t.Errorf("%s: reserved History's records differ from the grown one's", stage)
		}
		if !bytes.Equal(encodeHistory(t, grown), encodeHistory(t, reserved)) {
			t.Errorf("%s: reserved History's log bytes differ from the grown one's", stage)
		}
	}
	record(n)
	if cap(reserved.col[pdKind]) != n*reserved.size[pdKind] || cap(reserved.col[ivKind]) != n*T*reserved.size[ivKind] {
		t.Errorf("reserved for %d periods, holds %d periods / %d intervals of capacity",
			n, cap(reserved.col[pdKind])/reserved.size[pdKind], cap(reserved.col[ivKind])/reserved.size[ivKind])
	}
	check("at the reserve")
	record(3)
	check("past the reserve")
}
