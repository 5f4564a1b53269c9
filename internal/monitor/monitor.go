// Package monitor implements the EdgeSlice system monitor (Sec. V-D): it
// collects network-state information (traffic load, slice performance,
// queue status) into an in-memory time-series dataset and records the
// user–slice associations keyed by IMSI (radio domain) and IP address
// (transport and computing domains) that the resource managers rely on.
package monitor

import (
	"fmt"
	"sort"
	"sync"
)

// Sample is one time-series point.
type Sample struct {
	Interval int
	Value    float64
}

// Monitor is a thread-safe metrics dataset plus the association database.
// One plain mutex guards it: recording is by far the most frequent call
// (every RA × slice × interval), and a writer pays half the atomic
// operations on a Mutex that it pays on an RWMutex.
type Monitor struct {
	mu sync.Mutex

	// Every series is a column of a block; refs resolves a metric name to
	// its column. A series recorded by name is a block of width one.
	refs   map[string]ref
	blocks []*block
	byIMSI map[string]int
	byIP   map[string]int

	// window, when positive, bounds each metric to its most recent window
	// samples (streaming-mode retention); evicted counts samples dropped
	// by that bound across all metrics.
	window  int
	evicted uint64
}

// block stores series that are recorded together, one row per interval: the
// rows' shared interval column plus their values, row-major. A row costs one
// order check and one copy however many series it spans.
type block struct {
	names     []string
	intervals []int
	values    []float64 // len(intervals) × len(names)

	// split, once non-nil, lists the width-one blocks the columns moved to
	// (splitLocked); the block then holds no samples.
	split []int
}

// ref locates a series: column col of blocks[block].
type ref struct{ block, col int }

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{
		refs:   make(map[string]ref),
		byIMSI: make(map[string]int),
		byIP:   make(map[string]int),
	}
}

// MetricName builds the canonical metric key for a slice/RA pair, e.g.
// "perf/ra0/slice1" or "queue/ra2/slice0".
func MetricName(kind string, ra, slice int) string {
	return fmt.Sprintf("%s/ra%d/slice%d", kind, ra, slice)
}

// SetWindow bounds every metric's retention to its most recent n samples
// (n <= 0 restores unbounded retention). Eviction is amortized: a series
// grows to 2n before its oldest half is discarded in place, so recording
// never allocates — existing series are sized to 2n here, later ones at creation.
func (m *Monitor) SetWindow(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.window = n
	if n <= 0 {
		return
	}
	for _, b := range m.blocks {
		if rows := len(b.intervals); rows > n {
			m.evicted += uint64((rows - n) * len(b.names))
			b.keepNewest(n)
		}
		if b.split == nil {
			b.reserve(2 * n)
		}
	}
}

// keepNewest discards all but the newest n rows in place.
func (b *block) keepNewest(n int) {
	w, rows := len(b.names), len(b.intervals)
	copy(b.intervals, b.intervals[rows-n:])
	copy(b.values, b.values[(rows-n)*w:])
	b.intervals, b.values = b.intervals[:n], b.values[:n*w]
}

// reserve grows the block's capacity to at least rows rows.
func (b *block) reserve(rows int) {
	if cap(b.intervals) < rows {
		b.intervals = append(make([]int, 0, rows), b.intervals...)
		b.values = append(make([]float64, 0, rows*len(b.names)), b.values...)
	}
}

// Window returns the configured retention bound (0 = unbounded).
func (m *Monitor) Window() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.window
}

// EvictedSamples returns how many samples the retention window has
// discarded across all metrics.
func (m *Monitor) EvictedSamples() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// TotalSamples returns the number of samples currently retained across
// all metrics.
func (m *Monitor) TotalSamples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.blocks {
		n += len(b.values)
	}
	return n
}

// newBlockLocked adds an empty block of the given columns and points at it
// every name that no series has yet.
func (m *Monitor) newBlockLocked(names []string) int {
	id := len(m.blocks)
	b := &block{names: names}
	if m.window > 0 {
		// A bounded block never exceeds 2·window rows (see appendLocked), so
		// sizing it once keeps recording allocation-free.
		b.reserve(2 * m.window)
	}
	m.blocks = append(m.blocks, b)
	for col, name := range names {
		if _, taken := m.refs[name]; !taken {
			m.refs[name] = ref{id, col}
		}
	}
	return id
}

// seriesLocked returns the width-one block of a metric, creating it (empty)
// on first sight. A column of a row group gets per-series storage, as do the
// group's other columns: from here on its intervals may differ from theirs.
func (m *Monitor) seriesLocked(metric string) int {
	r, ok := m.refs[metric]
	if !ok {
		return m.newBlockLocked([]string{metric})
	}
	if b := m.blocks[r.block]; len(b.names) > 1 {
		m.splitLocked(b)
		r = m.refs[metric]
	}
	return r.block
}

// splitLocked moves every column of a row group to per-series storage,
// samples included; a column whose name another series already owns is
// recorded there.
func (m *Monitor) splitLocked(b *block) {
	w := len(b.names)
	b.split = make([]int, w)
	for col, name := range b.names {
		if r := m.refs[name]; m.blocks[r.block] != b || r.col != col {
			b.split[col] = m.seriesLocked(name)
			continue
		}
		delete(m.refs, name)
		id := m.newBlockLocked(b.names[col : col+1])
		nb := m.blocks[id]
		nb.reserve(len(b.intervals))
		nb.intervals = append(nb.intervals, b.intervals...)
		for row := range b.intervals {
			nb.values = append(nb.values, b.values[row*w+col])
		}
		b.split[col] = id
	}
	b.intervals, b.values = nil, nil
}

// Record appends a sample to a metric. Intervals are expected to be
// non-decreasing per metric; out-of-order samples are rejected so queries
// can binary-search.
func (m *Monitor) Record(metric string, interval int, value float64) error {
	if metric == "" {
		return fmt.Errorf("monitor: empty metric name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendLocked(m.blocks[m.seriesLocked(metric)], interval, []float64{value})
}

// Group registers metrics that are recorded together — one value each per
// interval, through RecordRow — and returns the group's id. Queries cannot
// tell grouped from by-name series. A group naming a metric twice, or one the
// monitor already knows, is kept column by column: slower, same semantics.
func (m *Monitor) Group(metrics []string) (int, error) {
	for _, metric := range metrics {
		if metric == "" {
			return 0, fmt.Errorf("monitor: empty metric name")
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	free := len(m.refs)
	id := m.newBlockLocked(append([]string(nil), metrics...))
	if len(m.refs) != free+len(metrics) { // some name was taken, or repeats
		m.splitLocked(m.blocks[id])
	}
	return id, nil
}

// RecordRow records row[k] into the k-th metric of a group, all at one
// interval and under a single lock acquisition, and returns how many samples
// were rejected: out-of-order ones, or the whole row when the group is
// unknown or the row's width is not the group's.
//
//edgeslice:noalloc
func (m *Monitor) RecordRow(group, interval int, row []float64) (rejected int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if group < 0 || group >= len(m.blocks) || len(row) != len(m.blocks[group].names) {
		return len(row)
	}
	b := m.blocks[group]
	if b.split == nil {
		if m.appendLocked(b, interval, row) != nil {
			return len(row)
		}
		return 0
	}
	for col, id := range b.split {
		if m.appendLocked(m.blocks[id], interval, row[col:col+1]) != nil {
			rejected++
		}
	}
	return rejected
}

//edgeslice:noalloc
func (m *Monitor) appendLocked(b *block, interval int, row []float64) error {
	if n := len(b.intervals); n > 0 && b.intervals[n-1] > interval {
		//edgeslice:allocok cold error path
		return fmt.Errorf("monitor: out-of-order sample for %s: %d after %d", b.names[0], interval, b.intervals[n-1])
	}
	if w := m.window; w > 0 && len(b.intervals) >= 2*w {
		// Amortized copy-down: keep the newest w rows in place.
		m.evicted += uint64((len(b.intervals) - w) * len(b.names))
		b.keepNewest(w)
	}
	if len(b.intervals) == cap(b.intervals) {
		// Only an unbounded block fills up (a bounded one is sized to
		// 2·window rows and the copy-down above keeps it below that). It
		// doubles: append's 1.25× growth of a wide block copies it over and
		// over.
		b.reserve(max(2*len(b.intervals), 8))
	}
	//edgeslice:allocok the capacity check above leaves room for this row
	b.intervals = append(b.intervals, interval)
	//edgeslice:allocok as above: reserve sizes values with intervals
	b.values = append(b.values, row...)
	return nil
}

// at returns sample i of column col.
func (b *block) at(i, col int) Sample { return Sample{b.intervals[i], b.values[i*len(b.names)+col]} }

// rangeLocked returns a metric's block and column and the index range [lo, hi)
// of its samples with Interval in [from, to]: empty when it was never seen.
//
//edgeslice:noalloc
func (m *Monitor) rangeLocked(metric string, from, to int) (b *block, col, lo, hi int) {
	var iv []int
	if r, ok := m.refs[metric]; ok {
		b, col = m.blocks[r.block], r.col
		iv = b.intervals
	}
	//edgeslice:allocok sort.Search closures stay on the stack; BenchmarkMeanOver pins 0 B/op
	lo = sort.Search(len(iv), func(i int) bool { return iv[i] >= from })
	//edgeslice:allocok sort.Search closures stay on the stack; BenchmarkMeanOver pins 0 B/op
	hi = sort.Search(len(iv), func(i int) bool { return iv[i] > to })
	return b, col, lo, hi
}

// Query returns samples of a metric with Interval in [from, to].
func (m *Monitor) Query(metric string, from, to int) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, col, lo, hi := m.rangeLocked(metric, from, to)
	if lo >= hi {
		return nil
	}
	out := make([]Sample, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, b.at(i, col))
	}
	return out
}

// Latest returns the most recent sample of a metric.
func (m *Monitor) Latest(metric string) (Sample, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.refs[metric]
	if !ok || len(m.blocks[r.block].intervals) == 0 {
		return Sample{}, false
	}
	b := m.blocks[r.block]
	return b.at(len(b.intervals)-1, r.col), true
}

// Metrics lists all recorded metric names, sorted.
func (m *Monitor) Metrics() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.refs))
	for _, b := range m.blocks {
		if len(b.intervals) > 0 { // a registered series with no sample yet is not a recorded metric
			out = append(out, b.names...)
		}
	}
	sort.Strings(out)
	return out
}

// AssociateIMSI records that a user (IMSI) belongs to a slice.
func (m *Monitor) AssociateIMSI(imsi string, slice int) error {
	if imsi == "" {
		return fmt.Errorf("monitor: empty IMSI")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byIMSI[imsi] = slice
	return nil
}

// AssociateIP records that a user IP belongs to a slice.
func (m *Monitor) AssociateIP(ip string, slice int) error {
	if ip == "" {
		return fmt.Errorf("monitor: empty IP")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byIP[ip] = slice
	return nil
}

// SliceOfIMSI resolves a user's slice by IMSI.
func (m *Monitor) SliceOfIMSI(imsi string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.byIMSI[imsi]
	return s, ok
}

// SliceOfIP resolves a user's slice by IP.
func (m *Monitor) SliceOfIP(ip string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.byIP[ip]
	return s, ok
}

// ReduceOver visits every sample of a metric with Interval in [from, to]
// in interval order, without copying the window, and returns how many
// samples were visited. fn must not call back into the monitor (it runs
// under the lock).
//
//edgeslice:noalloc
func (m *Monitor) ReduceOver(metric string, from, to int, fn func(Sample)) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, col, lo, hi := m.rangeLocked(metric, from, to)
	for i := lo; i < hi; i++ {
		fn(b.at(i, col))
	}
	return hi - lo
}

// MeanOver returns the mean value of a metric over [from, to], or an error
// if there are no samples in the window. It reduces in place (ReduceOver)
// rather than copying the window.
func (m *Monitor) MeanOver(metric string, from, to int) (float64, error) {
	var sum float64
	n := m.ReduceOver(metric, from, to, func(s Sample) { sum += s.Value })
	if n == 0 {
		return 0, fmt.Errorf("monitor: no samples for %s in [%d, %d]", metric, from, to)
	}
	return sum / float64(n), nil
}
