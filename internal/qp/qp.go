// Package qp provides the small quadratic-programming and projection
// routines needed by the EdgeSlice performance coordinator (problem P2,
// Eq. 11) and by resource-capacity enforcement.
//
// The paper solves P2 with CVXPY; P2 is separable per network slice and
// each sub-problem is the Euclidean projection of a point onto the
// half-space {z : Σ z_j ≥ U_min}, which has a closed form. A generic
// projected-gradient solver is also provided and used in tests to verify
// the closed form.
package qp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrMaxIterations is returned when an iterative solver fails to converge.
var ErrMaxIterations = errors.New("qp: maximum iterations reached")

// ProjectHalfspaceSumGE returns the Euclidean projection of c onto
// {z : Σ_j z_j ≥ b}:
//
//	z = c + max(0, (b − Σ c)/n) · 1.
//
// This is the exact solution of min ‖z − c‖² s.t. Σ z ≥ b (the per-slice
// z-update of P2 with the SLA constraint of Eq. 5).
func ProjectHalfspaceSumGE(c []float64, b float64) []float64 {
	if len(c) == 0 {
		return nil
	}
	out := make([]float64, len(c))
	ProjectHalfspaceSumGEInto(out, c, b)
	return out
}

// ProjectHalfspaceSumGEInto is ProjectHalfspaceSumGE writing into dst, which
// must have c's length and may be c itself.
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

// ProjectSimplexSum returns the Euclidean projection of v onto the scaled
// simplex {x : x ≥ 0, Σ x = total} using the sort-based algorithm of Duchi
// et al. (2008). total must be positive.
func ProjectSimplexSum(v []float64, total float64) ([]float64, error) {
	if total <= 0 {
		return nil, fmt.Errorf("qp: simplex total %v must be positive", total)
	}
	n := len(v)
	if n == 0 {
		return nil, errors.New("qp: empty vector")
	}
	u := append([]float64(nil), v...)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	var cssv float64
	rho := -1
	var theta float64
	for i := 0; i < n; i++ {
		cssv += u[i]
		t := (cssv - total) / float64(i+1)
		if u[i]-t > 0 {
			rho = i
			theta = t
		}
	}
	if rho < 0 {
		// Degenerate (cannot happen for total > 0), fall back to uniform.
		out := make([]float64, n)
		for i := range out {
			out[i] = total / float64(n)
		}
		return out, nil
	}
	out := make([]float64, n)
	for i, x := range v {
		out[i] = math.Max(0, x-theta)
	}
	return out, nil
}

// ProjectCappedBox projects v onto {x : 0 ≤ x, Σ x ≤ total} — the feasible
// action region of constraint (3). If v is already feasible after clamping
// at zero it is returned clamped; otherwise it is projected onto the
// simplex boundary.
func ProjectCappedBox(v []float64, total float64) ([]float64, error) {
	if total <= 0 {
		return nil, fmt.Errorf("qp: capacity %v must be positive", total)
	}
	clamped := make([]float64, len(v))
	var sum float64
	for i, x := range v {
		if x > 0 {
			clamped[i] = x
			sum += x
		}
	}
	if sum <= total {
		return clamped, nil
	}
	return ProjectSimplexSum(v, total)
}

// Problem is a convex QP of the form
//
//	min ½‖z − c‖²  s.t.  Σ z ≥ b,  z_j ≥ lower_j (optional)
//
// solved with projected gradient descent. It exists to cross-check the
// closed-form projections and to support variants with extra bounds.
type Problem struct {
	C     []float64
	B     float64
	Lower []float64 // optional element-wise lower bounds (nil = none)
}

// SolveProjGrad runs projected gradient descent with the given step size
// until the iterate moves less than tol in infinity norm, or maxIter is
// exhausted (returning ErrMaxIterations alongside the best iterate).
func (p *Problem) SolveProjGrad(step, tol float64, maxIter int) ([]float64, error) {
	if len(p.C) == 0 {
		return nil, errors.New("qp: empty problem")
	}
	if p.Lower != nil && len(p.Lower) != len(p.C) {
		return nil, fmt.Errorf("qp: lower bounds length %d != %d", len(p.Lower), len(p.C))
	}
	z := append([]float64(nil), p.C...)
	p.project(z)
	for it := 0; it < maxIter; it++ {
		var moved float64
		// Gradient of ½‖z−c‖² is (z−c); step then project.
		for j := range z {
			z[j] -= step * (z[j] - p.C[j])
		}
		before := append([]float64(nil), z...)
		p.project(z)
		for j := range z {
			if d := math.Abs(z[j] - before[j]); d > moved {
				moved = d
			}
		}
		// Measure progress by total movement this iteration.
		var delta float64
		for j := range z {
			if d := math.Abs(step * (z[j] - p.C[j])); d > delta {
				delta = d
			}
		}
		if delta < tol {
			return z, nil
		}
	}
	return z, ErrMaxIterations
}

// project maps z onto the feasible set in place (alternating projections;
// exact when only one constraint is active, which holds for this geometry).
func (p *Problem) project(z []float64) {
	for pass := 0; pass < 8; pass++ {
		if p.Lower != nil {
			for j := range z {
				if z[j] < p.Lower[j] {
					z[j] = p.Lower[j]
				}
			}
		}
		proj := ProjectHalfspaceSumGE(z, p.B)
		copy(z, proj)
		if p.Lower == nil {
			return
		}
		ok := true
		for j := range z {
			if z[j] < p.Lower[j]-1e-12 {
				ok = false
				break
			}
		}
		if ok {
			return
		}
	}
}
