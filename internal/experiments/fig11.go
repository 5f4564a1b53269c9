package experiments

import (
	"fmt"
	"math"

	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
)

// Fig11 reproduces "The compatibility of EdgeSlice": (a) system performance
// vs the α exponent of the queue performance function U = −l^α; (b) the CDF
// of normalized system performance under the service-time performance
// function that deliberately ignores queue state.
func Fig11(o Options) (*Figure, *Figure, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	figA := &Figure{
		ID:    "fig11a",
		Title: "System performance vs performance-function exponent alpha",
		Notes: "paper: EdgeSlice stays best across alpha in {1.0, 1.5, 2.0, 2.5}",
	}
	alphas := []float64{1.0, 1.5, 2.0, 2.5}
	for _, algo := range comparisonAlgos {
		s := Series{Name: algo.String()}
		for _, alpha := range alphas {
			h, err := o.runAlgo(algo, func(c *core.Config) {
				c.EnvTemplate.Alpha = alpha
				// Keep the reward's normalized dynamic range independent
				// of α: |U| tops out at MaxQueue^α, so the normalization
				// constants scale by MaxQueue^(α−2) relative to the
				// defaults tuned at α = 2.
				scale := math.Pow(float64(c.EnvTemplate.MaxQueue), alpha-2)
				c.EnvTemplate.PerfNorm *= scale
				c.EnvTemplate.CoordSpan *= scale
				c.EnvTemplate.CoordNorm *= scale
			})
			if err != nil {
				return nil, nil, fmt.Errorf("fig11a %v alpha=%v: %w", algo, alpha, err)
			}
			mp, err := h.MeanSystemPerf(h.Intervals() / 2)
			if err != nil {
				return nil, nil, err
			}
			s.X = append(s.X, alpha)
			s.Y = append(s.Y, mp)
		}
		figA.Series = append(figA.Series, s)
	}

	figB := &Figure{
		ID:    "fig11b",
		Title: "CDF of normalized system performance (service-time metric)",
		Notes: "paper: EdgeSlice and EdgeSlice-NT coincide (queue state is uninformative); TARO is far worse",
	}
	for _, algo := range comparisonAlgos {
		h, err := o.runAlgo(algo, func(c *core.Config) {
			c.EnvTemplate.Perf = netsim.PerfServiceTime
			c.EnvTemplate.CoordSpan = 50
			c.EnvTemplate.CoordNorm = 50
			c.EnvTemplate.PerfNorm = 1
			if algo.IsLearning() {
				// The service-time landscape is flat wherever the
				// bottleneck domain does not change; give the learners a
				// larger budget to find the boundary allocations.
				c.TrainSteps *= 2
			}
		})
		if err != nil {
			return nil, nil, fmt.Errorf("fig11b %v: %w", algo, err)
		}
		// Normalized system performance: per-interval system performance
		// over the steady half of the run.
		samples := h.IntervalColumn(0)[h.Intervals()/2:]
		pts := mathutil.EmpiricalCDF(samples)
		s := Series{Name: algo.String()}
		for _, p := range pts {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Prob)
		}
		figB.Series = append(figB.Series, s)
	}
	return figA, figB, nil
}
