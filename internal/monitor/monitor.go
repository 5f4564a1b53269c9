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

	// Series are stored by handle: ids resolves a metric name once (Handle,
	// or Record on first sight) and names/series are indexed by the id, so
	// the per-sample path (RecordID) hashes no strings.
	ids    map[string]int
	names  []string
	series [][]Sample
	byIMSI map[string]int
	byIP   map[string]int

	// window, when positive, bounds each metric to its most recent window
	// samples (streaming-mode retention); evicted counts samples dropped
	// by that bound across all metrics.
	window  int
	evicted uint64
}

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{
		ids:    make(map[string]int),
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
// is allowed to grow to 2n before its oldest half is discarded in place,
// so Record stays O(1) amortized with no per-eviction allocation.
func (m *Monitor) SetWindow(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.window = n
	if n <= 0 {
		return
	}
	for id, s := range m.series {
		if len(s) > n {
			m.evicted += uint64(len(s) - n)
			copy(s, s[len(s)-n:])
			m.series[id] = s[:n]
		}
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
	for _, s := range m.series {
		n += len(s)
	}
	return n
}

// Handle resolves a metric name to its series id, creating the (empty)
// series on first use. Ids are stable for the monitor's lifetime; a caller
// that records the same metrics every interval resolves them once and
// records through RecordID.
func (m *Monitor) Handle(metric string) (int, error) {
	if metric == "" {
		return 0, fmt.Errorf("monitor: empty metric name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handleLocked(metric), nil
}

func (m *Monitor) handleLocked(metric string) int {
	id, ok := m.ids[metric]
	if !ok {
		id = len(m.series)
		m.ids[metric] = id
		m.names = append(m.names, metric)
		var s []Sample
		if m.window > 0 {
			// A bounded series never exceeds 2·window samples (see
			// appendLocked), so sizing it once keeps recording allocation-free.
			s = make([]Sample, 0, 2*m.window)
		}
		m.series = append(m.series, s)
	}
	return id
}

// seriesLocked returns the samples of a metric (nil when never seen).
func (m *Monitor) seriesLocked(metric string) []Sample {
	if id, ok := m.ids[metric]; ok {
		return m.series[id]
	}
	return nil
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
	return m.appendLocked(m.handleLocked(metric), interval, value)
}

// RecordID is Record for a series id obtained from Handle: the same order
// check, retention window, and eviction accounting, without the name
// lookup.
//
//edgeslice:noalloc
func (m *Monitor) RecordID(id, interval int, value float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= len(m.series) {
		//edgeslice:allocok cold error path
		return fmt.Errorf("monitor: unknown series id %d", id)
	}
	return m.appendLocked(id, interval, value)
}

// RecordIDs records values[k] into series ids[k], all at one interval, under
// a single lock acquisition — the form for a caller that records many series
// every interval — and returns how many samples were rejected (out of order
// or unknown id), which RecordID would have reported one error at a time.
//
//edgeslice:noalloc
func (m *Monitor) RecordIDs(ids []int, interval int, values []float64) (rejected int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, id := range ids {
		if id < 0 || id >= len(m.series) || m.appendLocked(id, interval, values[k]) != nil {
			rejected++
		}
	}
	return rejected
}

//edgeslice:noalloc
func (m *Monitor) appendLocked(id, interval int, value float64) error {
	s := m.series[id]
	if n := len(s); n > 0 && s[n-1].Interval > interval {
		//edgeslice:allocok cold error path
		return fmt.Errorf("monitor: out-of-order sample for %s: %d after %d",
			m.names[id], interval, s[n-1].Interval)
	}
	if w := m.window; w > 0 && len(s) >= 2*w {
		// Amortized copy-down: keep the newest w samples in place.
		m.evicted += uint64(len(s) - w)
		copy(s, s[len(s)-w:])
		s = s[:w]
	}
	//edgeslice:allocok a bounded series was sized to 2·window at creation and the copy-down above keeps it below that; an unbounded one retains every sample by contract
	m.series[id] = append(s, Sample{Interval: interval, Value: value})
	return nil
}

// Query returns samples of a metric with Interval in [from, to].
func (m *Monitor) Query(metric string, from, to int) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.seriesLocked(metric)
	lo := sort.Search(len(s), func(i int) bool { return s[i].Interval >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].Interval > to })
	if lo >= hi {
		return nil
	}
	return append([]Sample(nil), s[lo:hi]...)
}

// Latest returns the most recent sample of a metric.
func (m *Monitor) Latest(metric string) (Sample, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.seriesLocked(metric)
	if len(s) == 0 {
		return Sample{}, false
	}
	return s[len(s)-1], true
}

// Metrics lists all recorded metric names, sorted.
func (m *Monitor) Metrics() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.series))
	for id, s := range m.series {
		if len(s) > 0 { // a handle with no sample yet is not a recorded metric
			out = append(out, m.names[id])
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
	s := m.seriesLocked(metric)
	//edgeslice:allocok sort.Search closures stay on the stack; BenchmarkReduceOver pins 0 B/op
	lo := sort.Search(len(s), func(i int) bool { return s[i].Interval >= from })
	//edgeslice:allocok sort.Search closures stay on the stack; BenchmarkReduceOver pins 0 B/op
	hi := sort.Search(len(s), func(i int) bool { return s[i].Interval > to })
	for _, sample := range s[lo:hi] {
		fn(sample)
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
