package mathutil

import "sort"

// CDFPoint is one point on an empirical cumulative distribution function.
type CDFPoint struct {
	Value float64 // sample value
	Prob  float64 // P(X <= Value)
}

// EmpiricalCDF returns the empirical CDF of the samples as a sorted list of
// (value, probability) points. It returns nil for empty input.
func EmpiricalCDF(samples Vec) []CDFPoint {
	if len(samples) == 0 {
		return nil
	}
	s := Clone(samples)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	n := float64(len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, Prob: float64(i+1) / n}
	}
	return out
}
