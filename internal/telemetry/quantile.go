package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Quantile estimates a single quantile of a stream with the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers track the running estimate in
// O(1) memory and O(1) time per observation, adjusted with a piecewise-
// parabolic (P²) interpolation as samples arrive. The first five
// observations are kept exactly, so small streams answer exactly.
//
// Quantile is not safe for concurrent use; Series wraps it with a lock.
type Quantile struct {
	p     float64
	count int
	// Marker state after the first five observations: heights h, actual
	// positions n (1-based), and desired positions np with per-observation
	// increments dn.
	h  [5]float64
	n  [5]float64
	np [5]float64
	dn [5]float64
	// The first five observations, kept sorted for the exact small-stream
	// answer and to seed the markers.
	init [5]float64
}

// NewQuantile returns a P² estimator for the p-th quantile, 0 < p < 1.
func NewQuantile(p float64) (*Quantile, error) {
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("telemetry: quantile %v outside (0, 1)", p)
	}
	q := &Quantile{p: p}
	q.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// Observe feeds one sample.
func (q *Quantile) Observe(x float64) {
	if q.count < 5 {
		q.init[q.count] = x
		q.count++
		if q.count == 5 {
			s := q.init
			sort.Float64s(s[:])
			q.h = s
			q.n = [5]float64{1, 2, 3, 4, 5}
			p := q.p
			q.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	q.count++

	// Locate the cell k with h[k] <= x < h[k+1], extending the extremes.
	var k int
	switch {
	case x < q.h[0]:
		q.h[0] = x
		k = 0
	case x >= q.h[4]:
		q.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.n[i]++
	}
	for i := range q.np {
		q.np[i] += q.dn[i]
	}

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.np[i] - q.n[i]
		if (d >= 1 && q.n[i+1]-q.n[i] > 1) || (d <= -1 && q.n[i-1]-q.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if h := q.parabolic(i, sign); q.h[i-1] < h && h < q.h[i+1] {
				q.h[i] = h
			} else {
				q.h[i] = q.linear(i, sign)
			}
			q.n[i] += sign
		}
	}
}

// parabolic is the piecewise-parabolic marker-height prediction.
func (q *Quantile) parabolic(i int, d float64) float64 {
	return q.h[i] + d/(q.n[i+1]-q.n[i-1])*
		((q.n[i]-q.n[i-1]+d)*(q.h[i+1]-q.h[i])/(q.n[i+1]-q.n[i])+
			(q.n[i+1]-q.n[i]-d)*(q.h[i]-q.h[i-1])/(q.n[i]-q.n[i-1]))
}

// linear is the fallback when the parabolic prediction leaves the bracket.
func (q *Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.h[i] + d*(q.h[j]-q.h[i])/(q.n[j]-q.n[i])
}

// Value returns the current estimate: exact for fewer than five
// observations, the center P² marker afterwards. An empty estimator
// returns NaN.
func (q *Quantile) Value() float64 {
	if q.count == 0 {
		return math.NaN()
	}
	if q.count < 5 {
		s := append([]float64(nil), q.init[:q.count]...)
		sort.Float64s(s)
		return ExactQuantile(s, q.p)
	}
	return q.h[2]
}

// ExactQuantile returns the p-th quantile of ascending-sorted samples with
// linear interpolation between order statistics (the same convention the
// scenario runner's summaries use).
func ExactQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
