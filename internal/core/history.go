package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"edgeslice/internal/netsim"
	"edgeslice/internal/telemetry"
)

// History holds one orchestration run as the history log's records, byte
// for byte (see HistoryLog). Exact mode appends every record to its column;
// streaming mode (NewStreamingHistory) keeps rings of the last window
// interval records and period tails (no slices × RAs grid), running sums
// and P² sketches, O(window) memory; summary mode (NewSummaryHistory) keeps
// no records, only two running sums. All answer accessors through tail.
type History struct {
	NumSlices, NumRAs, T int

	// col[k] holds the last min(n[k], window) records of kind k, size[k]
	// bytes each: in arrival order until a ring is window records long.
	col  [2][]byte
	size [2]int
	n    [2]int

	// window is how many records a column retains: all (math.MaxInt) in
	// exact mode, none in summary mode. Streaming mode only: the running sum
	// of every column (see val) in arrival order, and the sketches of the
	// system performance. Summary mode sums column 0 from interval from on.
	window   int
	sums     []float64
	sketches [len(StreamQuantiles)]telemetry.Quantile
	from     int
}

// errSummary is what a summary-mode History answers any other question with.
var errSummary = errors.New("core: a summary history answers only MeanSystemPerf(Intervals()/2) and SLASatisfactionRate(0)")

// The record kinds, indexing a History's columns.
const (
	ivKind = iota // interval records
	pdKind        // period records, or their tails in streaming mode
)

// StreamQuantiles are the quantile probabilities streaming mode tracks for
// the per-interval system performance.
var StreamQuantiles = [...]float64{0.05, 0.5, 0.95}

// NewHistory allocates an empty history in the default exact mode.
func NewHistory(numSlices, numRAs, t int) *History {
	return &History{NumSlices: numSlices, NumRAs: numRAs, T: t, window: math.MaxInt,
		size: [2]int{histIntervalLen(numSlices, netsim.NumResources), histPeriodLen(numSlices, numRAs)}}
}

// NewStreamingHistory allocates a history in streaming mode, whose memory is
// O(window) independent of run length. A window of 0 or less uses 1024.
func NewStreamingHistory(numSlices, numRAs, t, window int) *History {
	return newStreamingHistory(numSlices, numRAs, t, window, math.MaxInt)
}

// newStreamingHistory is NewStreamingHistory with rings of min(window,
// periods·T) interval and min(window, periods) period records, a run's;
// appending past that doubles a ring, up to the window.
func newStreamingHistory(numSlices, numRAs, t, window, periods int) *History {
	if window <= 0 {
		window = 1024
	}
	h := NewHistory(numSlices, numRAs, t)
	h.window, h.size[pdKind] = window, numSlices+16
	periods = min(periods, window)
	iv := min(window, periods*t) * h.size[ivKind]
	rings := make([]byte, iv+periods*h.size[pdKind])
	h.col = [2][]byte{rings[:0:iv], rings[iv:iv]}
	h.sums = make([]float64, h.columns()+2)
	for i, p := range StreamQuantiles {
		h.sketches[i], _ = telemetry.NewQuantile(p) // every p is in (0, 1)
	}
	return h
}

// NewSummaryHistory allocates a history in summary mode for a run of
// periods periods. Each record is still encoded and shape-checked, in one
// record of scratch space, but none is kept: only two running sums in
// arrival order, of the system performance over intervals
// [n − max(n/2, 1), n) of the run's n and of the met SLAs of every period.
// So it answers MeanSystemPerf(Intervals()/2) and SLASatisfactionRate(0)
// bit-identically to exact mode in O(1) memory; any other accessor is an
// error.
func NewSummaryHistory(numSlices, numRAs, t, periods int) *History {
	// A one-record ring is the scratch space; window 0 then retains nothing.
	h, n := NewStreamingHistory(numSlices, numRAs, t, 1), periods*t
	h.window, h.from = 0, n-max(n/2, 1)
	return h
}

// Streaming reports whether the history records in streaming (or summary)
// mode, which keep fewer records than the run's.
func (h *History) Streaming() bool { return h.window < math.MaxInt }

// columns returns the number of floats in an interval record.
func (h *History) columns() int { return (h.size[ivKind] - 1) / 8 }

// at returns the stored bytes of record r of kind k. A record the ring no
// longer holds panics, as an out-of-range index does.
func (h *History) at(k, r int) []byte {
	if r < 0 || r >= h.n[k] || h.n[k]-r > h.window {
		panic(fmt.Sprintf("core: record %d of %d is not retained", r, h.n[k]))
	}
	r %= h.window
	return h.col[k][r*h.size[k]:][:h.size[k]]
}

// slot returns the bytes the next record of kind k goes in: the next ring
// slot (summary mode's one), or past the end of an exact column. A full
// column doubles, a ring up to its window: no ring wraps before it is
// window records long, so a column to grow holds exactly r records.
func (h *History) slot(k int) []byte {
	r, size := h.n[k]%max(h.window, 1), h.size[k]
	if cap(h.col[k]) < (r+1)*size {
		h.col[k] = append(make([]byte, 0, min(2*r+1, h.window)*size), h.col[k][:r*size]...)
	}
	return h.col[k][r*size : (r+1)*size]
}

// store keeps the last size[k] bytes of rec, which the Add methods encode in
// place, as the next record of kind k, and adds them to the running sums.
func (h *History) store(k int, rec []byte) {
	rec = rec[len(rec)-h.size[k]:]
	copy(h.slot(k), rec)
	if h.n[k]++; len(h.col[k]) < min(h.n[k], h.window)*h.size[k] {
		h.col[k] = h.col[k][:len(h.col[k])+h.size[k]]
	}
	if !h.Streaming() {
		return
	}
	C := h.columns()
	switch {
	case k == pdKind:
		h.sums[C+1] += h.val(rec, C+1)
		return
	case h.window == 0:
		if h.n[k] > h.from {
			h.sums[0] += h.val(rec, 0)
		}
		return
	}
	for c := range C + 1 {
		h.sums[c] += h.val(rec, c)
	}
	for i := range h.sketches {
		h.sketches[i].Observe(f64(rec, 1))
	}
}

// AddInterval appends one interval's aggregates (usage is [slice][resource]).
// A record of another shape than the history's is an error, and not stored.
func (h *History) AddInterval(sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) error {
	rec, err := appendInterval(h.slot(ivKind)[:0], h.NumSlices, sysPerf, slicePerf, usage, violation)
	if err == nil {
		h.store(ivKind, rec)
	}
	return err
}

// AddPeriod appends one period's coordinator-side records (perf is
// [slice][ra]), on AddInterval's terms.
func (h *History) AddPeriod(perf [][]float64, sla []bool, primal, dual float64) error {
	rec, err := appendPeriod(h.slot(pdKind)[:0], h.NumSlices, h.NumRAs, perf, sla, primal, dual, !h.Streaming())
	if err == nil {
		h.store(pdKind, rec)
	}
	return err
}

// Intervals returns the number of recorded intervals.
func (h *History) Intervals() int { return h.n[ivKind] }

// Periods returns the number of recorded periods.
func (h *History) Periods() int { return h.n[pdKind] }

// IntervalColumn returns float c of every retained interval record, oldest
// first: column 0 is the system performance Σ_i Σ_j U (Fig. 6a), 1+i slice
// i's Σ_j U (Fig. 6b), 1+I+i·K+k slice i's usage share of resource k
// (K = netsim.NumResources, Fig. 7) and 1+I+I·K the capacity violation.
func (h *History) IntervalColumn(c int) []float64 {
	n := min(h.n[ivKind], h.window)
	out := make([]float64, n)
	for r := range out {
		out[r] = f64(h.at(ivKind, h.n[ivKind]-n+r), 1+8*c)
	}
	return out
}

// Period decodes retained period p: its [slice][ra] grid of Σ_t U (nil in
// streaming mode, which keeps none), which slices met their SLA, and the
// primal and dual ADMM residuals.
func (h *History) Period(p int) (perf [][]float64, sla []bool, primal, dual float64) {
	rec, I, J := h.at(pdKind, p), h.NumSlices, h.NumRAs
	tail := rec[len(rec)-I-16:]
	sla = make([]bool, I)
	for i := range sla {
		sla[i] = tail[i] != 0
	}
	if !h.Streaming() {
		perf = make([][]float64, I)
		for i := range perf {
			perf[i] = make([]float64, J)
			for j := range perf[i] {
				perf[i][j] = f64(rec, 1+8*(i*J+j))
			}
		}
	}
	return perf, sla, f64(tail, I), f64(tail, I+8)
}

// val returns column c of a record: for c below columns() float c of an
// interval record, for c = columns() 1 when the interval violated capacity,
// else 0, and for c = columns()+1 how many slices met their SLA in a period.
func (h *History) val(rec []byte, c int) float64 {
	n, C := 0.0, h.columns()
	switch {
	case c < C:
		return f64(rec, 1+8*c)
	case c == C && f64(rec, h.size[ivKind]-8) > 0:
		n = 1
	case c > C:
		for _, b := range rec[len(rec)-h.NumSlices-16:][:h.NumSlices] {
			if b != 0 {
				n++
			}
		}
	}
	return n
}

// tail sums val of column c over the last lastN records (all when lastN is
// not positive or exceeds the count), or, when a ring no longer holds them,
// returns the run's running sum. k is the number of records summed. Summary
// mode answers only the two ranges its sums cover.
func (h *History) tail(c, lastN int) (sum float64, k int, err error) {
	kind := ivKind
	if c > h.columns() {
		kind = pdKind
	}
	n := h.n[kind]
	if n == 0 {
		return 0, 0, fmt.Errorf("core: empty history")
	}
	if lastN <= 0 || lastN > n {
		lastN = n
	}
	if h.window == 0 {
		if c == 0 && n-lastN == h.from || kind == pdKind && lastN == n {
			return h.sums[c], lastN, nil
		}
		return 0, 0, errSummary
	}
	if lastN > h.window {
		return h.sums[c], n, nil
	}
	for r := n - lastN; r < n; r++ {
		sum += h.val(h.at(kind, r), c)
	}
	return sum, lastN, nil
}

// mean is tail's sum divided by the records it covers.
func (h *History) mean(c, lastN int) (float64, error) {
	sum, k, err := h.tail(c, lastN)
	if err != nil {
		return 0, err
	}
	return sum / float64(k), nil
}

// MeanSystemPerf returns the average per-interval system performance over
// the last n intervals (Fig. 6a's steady state). In streaming mode it is
// bit-identical to the exact mode's when lastN fits the window or covers
// the run; in between, it is the full-run mean.
func (h *History) MeanSystemPerf(lastN int) (float64, error) {
	return h.mean(0, lastN)
}

// MeanUsage returns the average usage share of a slice/resource over the
// last n intervals (Fig. 7 and 8), on MeanSystemPerf's streaming terms.
func (h *History) MeanUsage(slice, resource, lastN int) (float64, error) {
	if slice < 0 || slice >= h.NumSlices || resource < 0 || resource >= netsim.NumResources {
		return 0, fmt.Errorf("core: slice %d / resource %d out of range", slice, resource)
	}
	return h.mean(1+h.NumSlices+slice*netsim.NumResources+resource, lastN)
}

// UsageRatio returns η_a/η_b, η_i being slice i's mean usage summed over
// resources in the last n intervals (Fig. 8b-d); a zero η_b is an error.
func (h *History) UsageRatio(a, b, lastN int) (float64, error) {
	var eta [2]float64
	for s, slice := range [2]int{a, b} {
		for k := range netsim.NumResources {
			u, err := h.MeanUsage(slice, k, lastN)
			if err != nil {
				return 0, err
			}
			eta[s] += u
		}
	}
	if eta[1] == 0 {
		return 0, fmt.Errorf("core: slice %d has zero usage", b)
	}
	return eta[0] / eta[1], nil
}

// SLASatisfactionRate returns the fraction of (period, slice) pairs whose
// SLA was met over the last n periods, on MeanSystemPerf's streaming terms.
func (h *History) SLASatisfactionRate(lastN int) (float64, error) {
	met, k, err := h.tail(h.columns()+1, lastN)
	if err != nil {
		return 0, err
	}
	return met / float64(k*h.NumSlices), nil
}

// SystemPerfQuantile returns the q-th quantile of the per-interval system
// performance over the run: exact (linear interpolation) in exact mode, the
// P² estimate of a tracked StreamQuantiles entry in streaming mode.
func (h *History) SystemPerfQuantile(q float64) (float64, error) {
	if h.window == 0 {
		return 0, errSummary
	}
	if h.n[ivKind] == 0 {
		return 0, fmt.Errorf("core: empty history")
	}
	if h.Streaming() {
		for i, p := range StreamQuantiles {
			if p == q {
				return h.sketches[i].Value(), nil
			}
		}
		return 0, fmt.Errorf("core: streaming mode tracks quantiles %v, not %v", StreamQuantiles, q)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("core: quantile %v outside (0, 1)", q)
	}
	s := h.IntervalColumn(0)
	sort.Float64s(s)
	return telemetry.ExactQuantile(s, q), nil
}

// ViolationRate returns the fraction of intervals whose raw action
// violated the capacity constraint (violation > 0). Exact in both modes.
func (h *History) ViolationRate() (float64, error) {
	return h.mean(h.columns(), 0)
}

// LastResiduals returns the most recent period's primal and dual ADMM
// residuals (NaN, NaN when no period is retained).
func (h *History) LastResiduals() (primal, dual float64) {
	if min(h.n[pdKind], h.window) == 0 {
		return math.NaN(), math.NaN()
	}
	_, _, primal, dual = h.Period(h.n[pdKind] - 1)
	return primal, dual
}
