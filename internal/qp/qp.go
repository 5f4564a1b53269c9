// Package qp provides the projection the EdgeSlice performance coordinator
// needs for problem P2 (Eq. 11).
//
// The paper solves P2 with CVXPY; P2 is separable per network slice and
// each sub-problem is the Euclidean projection of a point onto the
// half-space {z : Σ z_j ≥ U_min}, which has a closed form.
package qp

// ProjectHalfspaceSumGEInto writes into dst the Euclidean projection of c
// onto {z : Σ_j z_j ≥ b}:
//
//	z = c + max(0, (b − Σ c)/n) · 1.
//
// This is the exact solution of min ‖z − c‖² s.t. Σ z ≥ b (the per-slice
// z-update of P2 with the SLA constraint of Eq. 5). dst must have c's
// length and may be c itself.
func ProjectHalfspaceSumGEInto(dst, c []float64, b float64) {
	var sum float64
	for _, v := range c {
		sum += v
	}
	shift := (b - sum) / float64(len(c))
	if shift < 0 {
		shift = 0
	}
	for i, v := range c {
		dst[i] = v + shift
	}
}
