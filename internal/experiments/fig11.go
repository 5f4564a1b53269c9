package experiments

import (
	"fmt"
	"math"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
)

// Fig11 reproduces "The compatibility of EdgeSlice": (a) system performance
// vs the α exponent of the queue performance function U = −l^α; (b) the CDF
// of normalized system performance under the service-time performance
// function that deliberately ignores queue state.
func (l *Lab) Fig11() (*Figure, *Figure, error) {
	figA := &Figure{
		ID:    "fig11a",
		Title: "System performance vs performance-function exponent alpha",
		Notes: "paper: EdgeSlice stays best across alpha in {1.0, 1.5, 2.0, 2.5}",
	}
	var err error
	figA.Series, err = l.steadySeries([]float64{1.0, 1.5, 2.0, 2.5}, false, func(algo core.Algorithm, alpha float64) (core.Config, error) {
		cfg := l.o.systemConfig(algo)
		cfg.EnvTemplate.Alpha = alpha
		// Keep the reward's normalized dynamic range independent of α:
		// |U| tops out at MaxQueue^α, so the normalization constants scale
		// by MaxQueue^(α−2) relative to the defaults tuned at α = 2.
		scale := math.Pow(float64(cfg.EnvTemplate.MaxQueue), alpha-2)
		cfg.EnvTemplate.PerfNorm *= scale
		cfg.EnvTemplate.CoordSpan *= scale
		cfg.EnvTemplate.CoordNorm *= scale
		return cfg, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig11a: %w", err)
	}

	figB := &Figure{
		ID:    "fig11b",
		Title: "CDF of normalized system performance (service-time metric)",
		Notes: "paper: EdgeSlice and EdgeSlice-NT coincide (queue state is uninformative); TARO is far worse",
	}
	for _, algo := range comparisonAlgos {
		cfg := l.o.systemConfig(algo)
		cfg.EnvTemplate.Perf = netsim.PerfServiceTime
		cfg.EnvTemplate.CoordSpan = 50
		cfg.EnvTemplate.CoordNorm = 50
		cfg.EnvTemplate.PerfNorm = 1
		if algo.IsLearning() {
			// The service-time landscape is flat wherever the bottleneck
			// domain does not change; give the learners a larger budget to
			// find the boundary allocations.
			cfg.TrainSteps *= 2
		}
		h, err := l.runTrained(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("fig11b %v: %w", algo, err)
		}
		// Normalized system performance: per-interval system performance
		// over the steady half of the run.
		figB.Series = append(figB.Series, cdfSeries(algo.String(), h.IntervalColumn(0)[h.Intervals()/2:]))
	}
	return figA, figB, nil
}
