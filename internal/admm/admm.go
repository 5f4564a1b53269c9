// Package admm implements the EdgeSlice performance coordinator (Sec. IV-A):
// the ADMM decomposition of problem P1 into per-RA resource orchestration
// (the x-update, Eq. 8, delegated to the DRL agents), the auxiliary-variable
// update (the z-update, Eq. 9 / problem P2), and the scaled-dual update
// (the y-update, Eq. 10).
//
// The coordinating information exchanged with orchestration agents is
// z_ij − y_ij (Sec. IV-B.1), which enters the agents' state space (Eq. 13)
// and reward function (Eq. 15).
package admm

import (
	"fmt"
	"math"

	"edgeslice/internal/qp"
)

// Config parameterizes the coordinator.
type Config struct {
	NumSlices    int       // |I|
	NumRAs       int       // |J|
	Rho          float64   // augmented-Lagrangian penalty ρ (paper: 1.0)
	UminPerSlice []float64 // SLA minimum performance Umin_i (paper: −50)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumSlices <= 0 || c.NumRAs <= 0 {
		return fmt.Errorf("admm: need positive slices (%d) and RAs (%d)", c.NumSlices, c.NumRAs)
	}
	if c.Rho < 0 {
		return fmt.Errorf("admm: rho %v must be non-negative", c.Rho)
	}
	if len(c.UminPerSlice) != c.NumSlices {
		return fmt.Errorf("admm: got %d Umin entries, want %d", len(c.UminPerSlice), c.NumSlices)
	}
	return nil
}

// Coordinator holds the ADMM state (Z, Y) and performs coordinator-side
// updates given the slice performance collected from the agents.
type Coordinator struct {
	cfg Config

	z     [][]float64 // z[i][j]
	y     [][]float64 // scaled dual y[i][j]
	prevZ [][]float64

	iterations int
	lastPrimal float64
	lastDual   float64
}

// NewCoordinator creates a coordinator with Z and Y initialized to zero
// (Alg. 1, line 1).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg}
	c.z = newGrid(cfg.NumSlices, cfg.NumRAs)
	c.y = newGrid(cfg.NumSlices, cfg.NumRAs)
	c.prevZ = newGrid(cfg.NumSlices, cfg.NumRAs)
	return c, nil
}

func newGrid(i, j int) [][]float64 {
	g := make([][]float64, i)
	for k := range g {
		g[k] = make([]float64, j)
	}
	return g
}

// CoordInfo returns the coordinating information z_ij − y_ij sent to the
// orchestration agent of RA j (one value per slice).
func (c *Coordinator) CoordInfo(ra int) []float64 {
	out := make([]float64, c.cfg.NumSlices)
	for i := range out {
		out[i] = c.z[i][ra] - c.y[i][ra]
	}
	return out
}

// ColumnInto copies RA ra's column of Z and of Y (one value per slice) into
// z and y — what the coordinator sends that RA each period, without the
// grid copies of Z and Y.
func (c *Coordinator) ColumnInto(ra int, z, y []float64) {
	for i := range c.z {
		z[i] = c.z[i][ra]
		y[i] = c.y[i][ra]
	}
}

// GridsInto copies Z and Y into caller-owned [slice][ra] grids — what the
// coordinator broadcasts each period, without Z's and Y's allocations.
func (c *Coordinator) GridsInto(z, y [][]float64) {
	for i := range c.z {
		copy(z[i], c.z[i])
		copy(y[i], c.y[i])
	}
}

// Z returns a copy of the auxiliary variables.
func (c *Coordinator) Z() [][]float64 { return copyGrid(c.z) }

// Y returns a copy of the scaled dual variables.
func (c *Coordinator) Y() [][]float64 { return copyGrid(c.y) }

func copyGrid(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	for i := range g {
		out[i] = append([]float64(nil), g[i]...)
	}
	return out
}

// Update performs one coordinator iteration given perf[i][j] = Σ_t U_ij^(t),
// the per-period cumulative performance reported by each RA's agent
// (Alg. 1 lines 7-10): the z-update solves P2 exactly per slice and the
// y-update performs scaled dual ascent.
func (c *Coordinator) Update(perf [][]float64) error {
	if err := c.checkShape(perf); err != nil {
		return err
	}
	for i := range c.z {
		copy(c.prevZ[i], c.z[i])
	}
	// z-update: per slice i, project (perf_i + y_i) onto Σ_j z_ij ≥ Umin_i.
	// The point is built in z's own row (prevZ already holds the old value)
	// and projected in place, so the update allocates nothing.
	for i := 0; i < c.cfg.NumSlices; i++ {
		zi := c.z[i]
		for j := range zi {
			zi[j] = perf[i][j] + c.y[i][j]
		}
		qp.ProjectHalfspaceSumGEInto(zi, zi, c.cfg.UminPerSlice[i])
	}
	// y-update (Eq. 10): y ← y + (perf − z).
	var primal, dual float64
	for i := 0; i < c.cfg.NumSlices; i++ {
		for j := 0; j < c.cfg.NumRAs; j++ {
			r := perf[i][j] - c.z[i][j]
			c.y[i][j] += r
			primal += r * r
			d := c.cfg.Rho * (c.z[i][j] - c.prevZ[i][j])
			dual += d * d
		}
	}
	c.lastPrimal = math.Sqrt(primal)
	c.lastDual = math.Sqrt(dual)
	c.iterations++
	return nil
}

// Residuals returns the primal and dual residual norms of the last Update,
// the standard ADMM convergence diagnostics (Boyd et al., 2011).
func (c *Coordinator) Residuals() (primal, dual float64) {
	return c.lastPrimal, c.lastDual
}

// Converged reports whether both residuals of the last update fell below
// tol (Alg. 1 line 12). It is false before the first update.
func (c *Coordinator) Converged(tol float64) bool {
	if c.iterations == 0 {
		return false
	}
	return c.lastPrimal <= tol && c.lastDual <= tol
}

// Iterations returns the number of coordinator updates performed.
func (c *Coordinator) Iterations() int { return c.iterations }

// SLASatisfied reports, per slice, whether the network-wide performance in
// perf meets the SLA constraint Σ_j perf_ij ≥ Umin_i (Eq. 2 over a period).
func (c *Coordinator) SLASatisfied(perf [][]float64) ([]bool, error) {
	out := make([]bool, c.cfg.NumSlices)
	if err := c.SLASatisfiedInto(perf, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SLASatisfiedInto is SLASatisfied writing the flags into out (one per
// slice) instead of a new slice.
func (c *Coordinator) SLASatisfiedInto(perf [][]float64, out []bool) error {
	if err := c.checkShape(perf); err != nil {
		return err
	}
	if len(out) != c.cfg.NumSlices {
		return fmt.Errorf("admm: SLA flags have %d slices, want %d", len(out), c.cfg.NumSlices)
	}
	for i := range out {
		var sum float64
		for j := 0; j < c.cfg.NumRAs; j++ {
			sum += perf[i][j]
		}
		out[i] = sum >= c.cfg.UminPerSlice[i]
	}
	return nil
}

// AugmentedLagrangian evaluates Ly (Eq. 7) at the current (Z, Y) for the
// given performance matrix; exposed for tests and diagnostics.
func (c *Coordinator) AugmentedLagrangian(perf [][]float64) (float64, error) {
	if err := c.checkShape(perf); err != nil {
		return 0, err
	}
	var ly float64
	for i := 0; i < c.cfg.NumSlices; i++ {
		for j := 0; j < c.cfg.NumRAs; j++ {
			diff := perf[i][j] - c.z[i][j] + c.y[i][j]
			ly += perf[i][j] - c.cfg.Rho/2*diff*diff
		}
	}
	return ly, nil
}

func (c *Coordinator) checkShape(perf [][]float64) error {
	if len(perf) != c.cfg.NumSlices {
		return fmt.Errorf("admm: perf has %d slices, want %d", len(perf), c.cfg.NumSlices)
	}
	for i, row := range perf {
		if len(row) != c.cfg.NumRAs {
			return fmt.Errorf("admm: perf slice %d has %d RAs, want %d", i, len(row), c.cfg.NumRAs)
		}
	}
	return nil
}
