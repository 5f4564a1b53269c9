// Package mathutil provides small vector and statistics helpers shared by
// the neural-network, ADMM, and simulation packages.
package mathutil

// Vec is a convenience alias for a dense float64 vector.
type Vec = []float64

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// PosPart returns max(0, x), the [x]^+ operator used in the reward shaping
// of Eq. 15.
func PosPart(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
