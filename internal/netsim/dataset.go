package netsim

import (
	"fmt"

	"edgeslice/internal/linreg"
)

// Dataset is the offline training dataset of Sec. VI-B: for every slice it
// records (allocation share → per-domain service rate) samples gathered by
// grid search at a fixed resource granularity (the paper uses 10%). A local
// linear-regression model over adjacent grid actions predicts the service
// behaviour of off-grid actions.
type Dataset struct {
	granularity float64
	// samples[slice][resource] = one (share, rate) list per grid point.
	shares [][][]float64 // x values (each a 1-dim feature vector)
	rates  [][]([]float64)
}

// BuildDataset runs the grid search against the environment's analytic
// service model, traversing shares 0..1 at the given granularity for every
// slice and resource domain independently (the paper's per-domain grid).
//
//edgeslice:reach offline training pipeline of Sec. VI-B (Fig. 5), kept with its tests; no binary builds a dataset yet
func BuildDataset(env *RAEnv, granularity float64) (*Dataset, error) {
	if granularity <= 0 || granularity > 0.5 {
		return nil, fmt.Errorf("netsim: granularity %v out of (0, 0.5]", granularity)
	}
	I := env.cfg.NumSlices
	ds := &Dataset{
		granularity: granularity,
		shares:      make([][][]float64, I),
		rates:       make([][]([]float64), I),
	}
	for i := 0; i < I; i++ {
		ds.shares[i] = make([][]float64, NumResources)
		ds.rates[i] = make([][]float64, NumResources)
		for k := 0; k < NumResources; k++ {
			// Each grid point measures the per-domain service rate
			// share·C/d of slice i.
			d := env.demands[i][k]
			var xs, ys []float64
			for share := 0.0; share <= 1.0+1e-9; share += granularity {
				var rate float64
				if d > 0 {
					rate = share * env.cfg.Capacity[k] / d
				}
				xs = append(xs, share)
				ys = append(ys, rate)
			}
			ds.shares[i][k] = xs
			ds.rates[i][k] = ys
		}
	}
	return ds, nil
}

// PredictRate predicts the per-domain service rate for an off-grid share by
// fitting a local linear model on the adjacent grid samples (the paper fits
// on actions like [10,30,20]% and [10,40,20]% around a query [12,38,22]%).
func (ds *Dataset) PredictRate(slice, resource int, share float64) (float64, error) {
	if slice < 0 || slice >= len(ds.shares) {
		return 0, fmt.Errorf("netsim: slice %d out of range", slice)
	}
	if resource < 0 || resource >= NumResources {
		return 0, fmt.Errorf("netsim: resource %d out of range", resource)
	}
	xs := ds.shares[slice][resource]
	ys := ds.rates[slice][resource]
	feats := make([][]float64, len(xs))
	for i := range xs {
		feats[i] = []float64{xs[i]}
	}
	m, err := linreg.LocalFit(feats, ys, []float64{share}, 3)
	if err != nil {
		return 0, fmt.Errorf("netsim: local fit: %w", err)
	}
	rate, err := m.Predict([]float64{share})
	if err != nil {
		return 0, err
	}
	if rate < 0 {
		rate = 0
	}
	return rate, nil
}

// PredictServiceTime predicts a slice's end-to-end per-task service time at
// the given per-domain shares: the bottleneck (minimum) rate across domains
// determines the pipeline's throughput.
func (ds *Dataset) PredictServiceTime(slice int, shares [NumResources]float64) (float64, error) {
	minRate := -1.0
	for k := 0; k < NumResources; k++ {
		r, err := ds.PredictRate(slice, k, shares[k])
		if err != nil {
			return 0, err
		}
		if minRate < 0 || r < minRate {
			minRate = r
		}
	}
	const maxServiceTime = 1e3
	if minRate <= 1/maxServiceTime {
		return maxServiceTime, nil
	}
	return 1 / minRate, nil
}

// Granularity returns the grid step used to build the dataset.
func (ds *Dataset) Granularity() float64 { return ds.granularity }

// NumSamples returns the number of grid samples per slice-resource pair.
func (ds *Dataset) NumSamples() int {
	if len(ds.shares) == 0 || len(ds.shares[0]) == 0 {
		return 0
	}
	return len(ds.shares[0][0])
}
