package core

import (
	"fmt"
	"math"
	"sort"

	"edgeslice/internal/netsim"
	"edgeslice/internal/telemetry"
)

// History captures everything the evaluation figures need from one
// orchestration run.
//
// It has two recording modes. The default (exact) mode appends every
// interval and period record in memory — O(run length), and the mode the
// experiments figures require, since they read the raw per-interval slices.
// The streaming mode (NewStreamingHistory) keeps a fixed-capacity ring of
// recent samples plus online summary state per metric — O(window) memory
// regardless of run length — and answers the same accessor API
// (MeanSystemPerf, MeanUsage, SLASatisfactionRate, …) from the summaries;
// the raw exported slices stay empty. Long daemon runs pair streaming mode
// with the on-disk HistoryLog, which can be replayed into an exact History
// when full fidelity is needed after the fact.
type History struct {
	NumSlices, NumRAs, T int

	// Per interval (exact mode only).
	SystemPerf []float64   // Σ_i Σ_j U^(t) (Fig. 6a)
	SlicePerf  [][]float64 // [slice][interval]: Σ_j U^(t) (Fig. 6b)
	Usage      [][][]float64
	Violations []float64

	// Per period (exact mode only).
	PeriodPerf [][][]float64 // [period][slice][ra]: Σ_t U
	SLAMet     [][]bool      // [period][slice]
	Primal     []float64     // coordinator residuals per period
	Dual       []float64

	// stream is non-nil in streaming mode.
	stream *historyStream

	// Exact mode cuts each interval's usage grid, each period's perf grid
	// and each SLA row off these free lists, which grow refills. They always
	// have length 0 and are non-nil from NewHistory on — only their capacity
	// varies — so reflect.DeepEqual between two Histories compares their
	// records and nothing else.
	freeVals []float64
	freeRows [][]float64
	freeSLA  []bool
}

// historyStream is the bounded-memory aggregation state of streaming mode:
// one telemetry.Series (ring + online summary) per metric.
type historyStream struct {
	window       int
	intervals    int
	periods      int
	numResources int

	sysPerf    *telemetry.Series   // with p5/p50/p95 sketches
	slicePerf  []*telemetry.Series // [slice]
	usage      [][]*telemetry.Series
	violations *telemetry.Series
	violating  int // intervals with violation > 0

	slaMet   *telemetry.Series // per-period count of slices whose SLA was met
	metTotal int

	lastPrimal, lastDual float64
}

// StreamQuantiles are the quantile probabilities streaming mode tracks for
// the per-interval system performance.
var StreamQuantiles = []float64{0.05, 0.5, 0.95}

// NewHistory allocates an empty history in the default exact mode.
func NewHistory(numSlices, numRAs, t int) *History {
	return &History{NumSlices: numSlices, NumRAs: numRAs, T: t,
		SlicePerf: make([][]float64, numSlices),
		freeVals:  []float64{}, freeRows: [][]float64{}, freeSLA: []bool{}}
}

// NewStreamingHistory allocates a history in streaming mode: per metric a
// ring of the most recent window samples plus online summaries (count,
// running mean, min/max, P² quantile sketches for the system-performance
// series), so memory is O(window) independent of run length. A window of
// 0 or less uses telemetry.DefaultWindow.
func NewStreamingHistory(numSlices, numRAs, t, window int) *History {
	if window <= 0 {
		window = telemetry.DefaultWindow
	}
	h := NewHistory(numSlices, numRAs, t)
	st := &historyStream{
		window:     window,
		sysPerf:    telemetry.NewSeries(window, StreamQuantiles...),
		slicePerf:  make([]*telemetry.Series, numSlices),
		violations: telemetry.NewSeries(window),
		slaMet:     telemetry.NewSeries(window),
	}
	for i := range st.slicePerf {
		st.slicePerf[i] = telemetry.NewSeries(window)
	}
	h.stream = st
	return h
}

// Streaming reports whether the history records in streaming mode.
func (h *History) Streaming() bool { return h.stream != nil }

// truncateTo discards exact-mode records past the first nIntervals
// intervals and nPeriods periods — the resume path uses it to cut a
// crashed run's log back to its last whole period.
func (h *History) truncateTo(nIntervals, nPeriods int) {
	if h.Streaming() || nIntervals > len(h.SystemPerf) || nPeriods > len(h.PeriodPerf) {
		return
	}
	h.SystemPerf = h.SystemPerf[:nIntervals]
	for i := range h.SlicePerf {
		h.SlicePerf[i] = h.SlicePerf[i][:nIntervals]
	}
	h.Usage = h.Usage[:nIntervals]
	h.Violations = h.Violations[:nIntervals]
	h.PeriodPerf = h.PeriodPerf[:nPeriods]
	h.SLAMet = h.SLAMet[:nPeriods]
	h.Primal = h.Primal[:nPeriods]
	h.Dual = h.Dual[:nPeriods]
}

// StreamWindow returns the ring capacity of streaming mode (0 in exact
// mode).
func (h *History) StreamWindow() int {
	if h.stream == nil {
		return 0
	}
	return h.stream.window
}

// AddInterval appends one interval's aggregates. usage is [slice][resource];
// the history copies it, so the caller may reuse its rows.
func (h *History) AddInterval(sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) {
	if st := h.stream; st != nil {
		st.addInterval(sysPerf, slicePerf, usage, violation)
		return
	}
	if len(h.SystemPerf) == cap(h.SystemPerf) {
		h.grow(0)
	}
	h.SystemPerf = append(h.SystemPerf, sysPerf)
	for i := range slicePerf {
		h.SlicePerf[i] = append(h.SlicePerf[i], slicePerf[i])
	}
	h.Usage = append(h.Usage, h.carveGrid(usage))
	h.Violations = append(h.Violations, violation)
}

// Reserve gives an exact-mode History room for periods periods and their
// intervals at once, so a run of known length records without growing; a
// run that goes on past them grows from there.
func (h *History) Reserve(periods int) {
	if h.stream == nil && periods > cap(h.Primal) {
		h.grow(periods)
	}
}

// grow moves the exact-mode records into room for cp periods, or double the
// whole periods they fill if more, so n periods cost O(log n) allocations:
// the series move into one new block per element type, and the grids and
// SLA rows of every new slot are reserved behind them. Grids of another
// shape than slices × resources and slices × RAs still record, off
// allocations of their own (take).
func (h *History) grow(cp int) {
	I, T := h.NumSlices, max(h.T, 1)
	li, lp := len(h.SystemPerf), len(h.Primal)
	cp = max(cp, 1, 2*max(lp, (li+T-1)/T))
	ci := cp * T
	vals := make([]float64, (2+I)*ci+2*cp+(ci-li)*I*netsim.NumResources+(cp-lp)*I*h.NumRAs)
	series := func(s []float64, n int) []float64 {
		out := append(vals[:0:n], s...)
		vals = vals[n:]
		return out
	}
	h.SystemPerf, h.Violations = series(h.SystemPerf, ci), series(h.Violations, ci)
	for i := range h.SlicePerf {
		h.SlicePerf[i] = series(h.SlicePerf[i], ci)
	}
	h.Primal, h.Dual = series(h.Primal, cp), series(h.Dual, cp)
	h.freeVals = vals[:0]
	grids := make([][][]float64, ci+cp)
	h.Usage, h.PeriodPerf = append(grids[:0:ci], h.Usage...), append(grids[ci:ci], h.PeriodPerf...)
	h.freeRows = make([][]float64, 0, (ci-li+cp-lp)*I)
	h.SLAMet = append(make([][]bool, 0, cp), h.SLAMet...)
	h.freeSLA = make([]bool, 0, (cp-lp)*I)
}

// carveGrid copies src into rows cut off the free lists.
func (h *History) carveGrid(src [][]float64) [][]float64 {
	g := take(&h.freeRows, len(src))
	for i, row := range src {
		g[i] = take(&h.freeVals, len(row))
		copy(g[i], row)
	}
	return g
}

// take cuts n elements off the front of a free list, which keeps length 0;
// when fewer than n remain it hands out a fresh slice instead.
func take[E any](free *[]E, n int) []E {
	f := *free
	if cap(f) < n {
		return make([]E, n)
	}
	*free = f[n:n]
	return f[:n:n]
}

func (st *historyStream) addInterval(sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) {
	if st.usage == nil && len(usage) > 0 {
		st.numResources = len(usage[0])
		st.usage = make([][]*telemetry.Series, len(usage))
		for i := range st.usage {
			st.usage[i] = make([]*telemetry.Series, st.numResources)
			for k := range st.usage[i] {
				st.usage[i][k] = telemetry.NewSeries(st.window)
			}
		}
	}
	st.intervals++
	st.sysPerf.Observe(sysPerf)
	for i := range slicePerf {
		st.slicePerf[i].Observe(slicePerf[i])
	}
	for i := range usage {
		for k := range usage[i] {
			st.usage[i][k].Observe(usage[i][k])
		}
	}
	st.violations.Observe(violation)
	if violation > 0 {
		st.violating++
	}
}

// AddPeriod appends one period's coordinator-side records.
func (h *History) AddPeriod(perf [][]float64, sla []bool, primal, dual float64) {
	if st := h.stream; st != nil {
		st.addPeriod(sla, primal, dual)
		return
	}
	if len(h.Primal) == cap(h.Primal) {
		h.grow(0)
	}
	h.PeriodPerf = append(h.PeriodPerf, h.carveGrid(perf))
	met := take(&h.freeSLA, len(sla))
	copy(met, sla)
	h.SLAMet = append(h.SLAMet, met)
	h.Primal = append(h.Primal, primal)
	h.Dual = append(h.Dual, dual)
}

func (st *historyStream) addPeriod(sla []bool, primal, dual float64) {
	st.periods++
	met := 0
	for _, ok := range sla {
		if ok {
			met++
		}
	}
	st.metTotal += met
	st.slaMet.Observe(float64(met))
	st.lastPrimal, st.lastDual = primal, dual
}

// Append concatenates another history of the same system shape onto h — a
// resumed run's prefix and its continuation, say — by replaying other's
// records through AddInterval and AddPeriod, so a streaming h absorbs them
// into its summaries. A streaming other cannot be appended (its raw records
// are gone).
func (h *History) Append(other *History) error {
	if other == nil {
		return fmt.Errorf("core: append nil history")
	}
	if other.NumSlices != h.NumSlices || other.NumRAs != h.NumRAs || other.T != h.T {
		return fmt.Errorf("core: append shape mismatch: %dx%dxT%d vs %dx%dxT%d",
			other.NumSlices, other.NumRAs, other.T, h.NumSlices, h.NumRAs, h.T)
	}
	if other.Streaming() {
		return fmt.Errorf("core: cannot append a streaming history: its per-interval records are summarized away; append exact chunks into a streaming accumulator instead")
	}
	slicePerf := make([]float64, h.NumSlices)
	for t := range other.SystemPerf {
		for i := range slicePerf {
			slicePerf[i] = other.SlicePerf[i][t]
		}
		h.AddInterval(other.SystemPerf[t], slicePerf, other.Usage[t], other.Violations[t])
	}
	for p := range other.PeriodPerf {
		h.AddPeriod(other.PeriodPerf[p], other.SLAMet[p], other.Primal[p], other.Dual[p])
	}
	return nil
}

// Intervals returns the number of recorded intervals.
func (h *History) Intervals() int {
	if h.stream != nil {
		return h.stream.intervals
	}
	return len(h.SystemPerf)
}

// Periods returns the number of recorded periods.
func (h *History) Periods() int {
	if h.stream != nil {
		return h.stream.periods
	}
	return len(h.PeriodPerf)
}

// MeanSystemPerf returns the average per-interval system performance over
// the last n intervals (the steady-state number quoted in Fig. 6a).
//
// In streaming mode the answer is exact — bit-identical to the default
// mode — when lastN covers the whole run or fits the retained window;
// in between (window < lastN < run length) the full-run mean is returned
// as the documented approximation.
func (h *History) MeanSystemPerf(lastN int) (float64, error) {
	if st := h.stream; st != nil {
		if st.intervals == 0 {
			return 0, fmt.Errorf("core: empty history")
		}
		return streamMean(st.sysPerf, lastN, st.intervals), nil
	}
	total := len(h.SystemPerf)
	if total == 0 {
		return 0, fmt.Errorf("core: empty history")
	}
	if lastN <= 0 || lastN > total {
		lastN = total
	}
	var sum float64
	for _, v := range h.SystemPerf[total-lastN:] {
		sum += v
	}
	return sum / float64(lastN), nil
}

// streamMean answers a trailing mean from a Series: the exact tail when
// the window retains lastN samples, the exact full-run mean when lastN
// covers (or exceeds) the run, and the full-run mean as the fallback
// approximation in between.
func streamMean(s *telemetry.Series, lastN, total int) float64 {
	if lastN > 0 && lastN < total {
		if mean, n := s.TailMean(lastN); n == lastN {
			return mean
		}
	}
	return s.Sum() / float64(total)
}

// MeanUsage returns the average usage share of a slice/resource over the
// last n intervals (Fig. 7's steady state and Fig. 8's η ratios). The
// streaming-mode approximation contract matches MeanSystemPerf.
func (h *History) MeanUsage(slice, resource, lastN int) (float64, error) {
	if slice < 0 || slice >= h.NumSlices {
		return 0, fmt.Errorf("core: slice %d out of range", slice)
	}
	if st := h.stream; st != nil {
		if st.intervals == 0 || st.usage == nil {
			return 0, fmt.Errorf("core: empty history")
		}
		if resource < 0 || resource >= st.numResources {
			return 0, fmt.Errorf("core: resource %d out of range", resource)
		}
		return streamMean(st.usage[slice][resource], lastN, st.intervals), nil
	}
	total := len(h.Usage)
	if total == 0 {
		return 0, fmt.Errorf("core: empty history")
	}
	if lastN <= 0 || lastN > total {
		lastN = total
	}
	var sum float64
	for _, u := range h.Usage[total-lastN:] {
		sum += u[slice][resource]
	}
	return sum / float64(lastN), nil
}

// UsageRatio returns η_a/η_b where η_i is the slice's mean usage across all
// resources over the last n intervals (Fig. 8b-d). A zero denominator
// returns an error.
func (h *History) UsageRatio(a, b, lastN int) (float64, error) {
	var etaA, etaB float64
	for k := 0; k < numResourcesOf(h); k++ {
		ua, err := h.MeanUsage(a, k, lastN)
		if err != nil {
			return 0, err
		}
		ub, err := h.MeanUsage(b, k, lastN)
		if err != nil {
			return 0, err
		}
		etaA += ua
		etaB += ub
	}
	if etaB == 0 {
		return 0, fmt.Errorf("core: slice %d has zero usage", b)
	}
	return etaA / etaB, nil
}

func numResourcesOf(h *History) int {
	if h.stream != nil {
		return h.stream.numResources
	}
	if len(h.Usage) == 0 || len(h.Usage[0]) == 0 {
		return 0
	}
	return len(h.Usage[0][0])
}

// SLASatisfactionRate returns the fraction of (period, slice) pairs whose
// SLA was met over the last n periods. The streaming-mode approximation
// contract matches MeanSystemPerf (per period instead of per interval).
func (h *History) SLASatisfactionRate(lastN int) (float64, error) {
	if st := h.stream; st != nil {
		if st.periods == 0 {
			return 0, fmt.Errorf("core: no periods recorded")
		}
		if h.NumSlices == 0 {
			return 0, fmt.Errorf("core: no slices")
		}
		if lastN > 0 && lastN < st.periods {
			if sum, n := st.slaMet.TailSum(lastN); n == lastN {
				return sum / float64(lastN*h.NumSlices), nil
			}
		}
		return float64(st.metTotal) / float64(st.periods*h.NumSlices), nil
	}
	total := len(h.SLAMet)
	if total == 0 {
		return 0, fmt.Errorf("core: no periods recorded")
	}
	if lastN <= 0 || lastN > total {
		lastN = total
	}
	var met, all int
	for _, period := range h.SLAMet[total-lastN:] {
		for _, ok := range period {
			all++
			if ok {
				met++
			}
		}
	}
	return float64(met) / float64(all), nil
}

// SystemPerfQuantile returns the q-th quantile of the per-interval system
// performance over the whole run: exact (sorted with linear interpolation)
// in the default mode, the P² streaming estimate for the tracked
// StreamQuantiles in streaming mode.
func (h *History) SystemPerfQuantile(q float64) (float64, error) {
	if st := h.stream; st != nil {
		if st.intervals == 0 {
			return 0, fmt.Errorf("core: empty history")
		}
		v, ok := st.sysPerf.Quantile(q)
		if !ok {
			return 0, fmt.Errorf("core: streaming mode tracks quantiles %v, not %v", StreamQuantiles, q)
		}
		return v, nil
	}
	if len(h.SystemPerf) == 0 {
		return 0, fmt.Errorf("core: empty history")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("core: quantile %v outside (0, 1)", q)
	}
	s := append([]float64(nil), h.SystemPerf...)
	sort.Float64s(s)
	return telemetry.ExactQuantile(s, q), nil
}

// ViolationRate returns the fraction of intervals whose raw action
// violated the capacity constraint (violation > 0). Exact in both modes.
func (h *History) ViolationRate() (float64, error) {
	if st := h.stream; st != nil {
		if st.intervals == 0 {
			return 0, fmt.Errorf("core: empty history")
		}
		return float64(st.violating) / float64(st.intervals), nil
	}
	if len(h.Violations) == 0 {
		return 0, fmt.Errorf("core: empty history")
	}
	var n int
	for _, v := range h.Violations {
		if v > 0 {
			n++
		}
	}
	return float64(n) / float64(len(h.Violations)), nil
}

// LastResiduals returns the most recent period's primal and dual ADMM
// residuals (NaN, NaN when no period is recorded).
func (h *History) LastResiduals() (primal, dual float64) {
	if st := h.stream; st != nil {
		if st.periods == 0 {
			return math.NaN(), math.NaN()
		}
		return st.lastPrimal, st.lastDual
	}
	if len(h.Primal) == 0 {
		return math.NaN(), math.NaN()
	}
	return h.Primal[len(h.Primal)-1], h.Dual[len(h.Dual)-1]
}
