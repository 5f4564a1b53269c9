// Package monitor implements the EdgeSlice system monitor (Sec. V-D): an
// in-memory time-series dataset of network-state samples (slice
// performance, queue status), one series per metric name.
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

// Monitor is a thread-safe metrics dataset.
type Monitor struct {
	mu     sync.Mutex
	series map[string]*series

	// window, when positive, bounds each metric to its most recent window
	// samples (streaming-mode retention).
	window int
}

// series holds one metric's samples in interval order.
type series struct{ samples []Sample }

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{series: make(map[string]*series)}
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
	//edgeslice:unordered each series is trimmed and sized on its own
	for _, s := range m.series {
		if len(s.samples) > n {
			s.keepNewest(n)
		}
		s.reserve(2 * n)
	}
}

// keepNewest discards all but the newest n samples in place.
func (s *series) keepNewest(n int) {
	s.samples = s.samples[:copy(s.samples, s.samples[len(s.samples)-n:])]
}

// reserve grows the series' capacity to at least n samples.
func (s *series) reserve(n int) {
	if cap(s.samples) < n {
		s.samples = append(make([]Sample, 0, n), s.samples...)
	}
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
	s, ok := m.series[metric]
	if !ok {
		s = &series{}
		if m.window > 0 {
			// A bounded series never exceeds 2·window samples (see below), so
			// sizing it once keeps recording allocation-free.
			s.reserve(2 * m.window)
		}
		m.series[metric] = s
	}
	if n := len(s.samples); n > 0 && s.samples[n-1].Interval > interval {
		return fmt.Errorf("monitor: out-of-order sample for %s: %d after %d", metric, interval, s.samples[n-1].Interval)
	}
	if w := m.window; w > 0 && len(s.samples) >= 2*w {
		s.keepNewest(w) // amortized copy-down
	}
	if len(s.samples) == cap(s.samples) {
		// Only an unbounded series fills up; it doubles, so n samples cost
		// O(log n) allocations.
		s.reserve(max(2*len(s.samples), 8))
	}
	s.samples = append(s.samples, Sample{interval, value})
	return nil
}

// Query returns samples of a metric with Interval in [from, to].
//
//edgeslice:reach the read side of TestRecordQuery and TestWindowedRetention until bench/ stops writing the monitor (ROADMAP item 12)
func (m *Monitor) Query(metric string, from, to int) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.series[metric]
	if !ok {
		return nil
	}
	lo := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].Interval >= from })
	hi := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].Interval > to })
	if lo >= hi {
		return nil
	}
	return append([]Sample(nil), s.samples[lo:hi]...)
}
