package telemetry

import (
	"math"
	"sync"
)

// DefaultWindow is the ring capacity used when a Series is created with a
// non-positive window.
const DefaultWindow = 1024

// Series is a streaming metric: a fixed-capacity ring of the most recent
// samples plus online summary state (a running sum and optional P²
// quantile sketches) over the whole stream. Memory is
// O(window + sketches), independent of how many samples are observed.
//
// The running sum accumulates in arrival order and the ring preserves
// arrival order, so means computed from a Series are bit-identical to a
// left-to-right sum over the same samples — the property core's streaming
// History mode relies on to match the exact in-memory mode.
//
// Series is safe for concurrent use.
type Series struct {
	mu       sync.Mutex
	sum      float64
	ring     []float64
	head     int // next write position
	filled   bool
	qs       []float64
	sketches []*Quantile
}

// NewSeries creates a Series with the given ring capacity (non-positive
// means DefaultWindow) tracking the given quantiles (each in (0, 1)).
// Invalid quantiles are rejected by NewQuantile; NewSeries panics on them
// because tracked quantiles are compile-time choices, not runtime input.
func NewSeries(window int, quantiles ...float64) *Series {
	if window <= 0 {
		window = DefaultWindow
	}
	s := &Series{ring: make([]float64, window)}
	for _, p := range quantiles {
		q, err := NewQuantile(p)
		if err != nil {
			panic(err)
		}
		s.qs = append(s.qs, p)
		s.sketches = append(s.sketches, q)
	}
	return s
}

// Observe feeds one sample.
func (s *Series) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum += v
	s.ring[s.head] = v
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
		s.filled = true
	}
	for _, q := range s.sketches {
		q.Observe(v)
	}
}

// Sum returns the running sum over the whole stream.
func (s *Series) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// retainedLocked returns how many samples the ring currently holds.
func (s *Series) retainedLocked() int {
	if s.filled {
		return len(s.ring)
	}
	return s.head
}

// TailSum sums the most recent n samples the ring holds (all of them when n
// is not positive or exceeds what it holds) in arrival order (oldest of the
// tail first — the same order a slice suffix would sum in) and reports how
// many samples contributed.
func (s *Series) TailSum(n int) (sum float64, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	retained := s.retainedLocked()
	if n <= 0 || n > retained {
		n = retained
	}
	start := s.head - n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < n; i++ {
		idx := start + i
		if idx >= len(s.ring) {
			idx -= len(s.ring)
		}
		sum += s.ring[idx]
	}
	return sum, n
}

// TailMean returns the mean over TailSum's samples and how many
// contributed (NaN, 0 when empty).
func (s *Series) TailMean(n int) (float64, int) {
	sum, m := s.TailSum(n)
	if m == 0 {
		return math.NaN(), 0
	}
	return sum / float64(m), m
}

// Quantile returns the streaming estimate for a tracked quantile; ok is
// false when p is not tracked.
func (s *Series) Quantile(p float64) (v float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.qs {
		if q == p {
			return s.sketches[i].Value(), true
		}
	}
	return math.NaN(), false
}
