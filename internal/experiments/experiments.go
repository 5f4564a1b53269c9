// Package experiments regenerates every figure of the paper's evaluation
// (Sec. VII) against the simulated substrates: each FigN function runs the
// corresponding workload and returns the data series the paper plots.
// The paper-vs-measured table for each figure (EXPERIMENTS.md) is not
// generated yet: ROADMAP "Paper-scale fidelity as a regenerated artifact".
//
// Scale note: the paper trains agents for 1e6 TensorFlow steps; the
// CI-scale defaults here train thousands of pure-Go steps with a smaller
// network (the Options fields control this). The comparisons preserve the
// paper's *shape* — algorithm ordering, convergence behaviour, crossover
// points — not its absolute testbed numbers.
package experiments

import (
	"fmt"

	"edgeslice/internal/core"
)

// Series is one named line/scatter in a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  string
}

// Options scales the experiments.
type Options struct {
	// TrainSteps per agent (paper: 1e6; CI default: 6000).
	TrainSteps int
	// Periods of Algorithm 1 to run (paper Fig. 6: 10 periods = 100
	// intervals).
	Periods int
	// Seed drives all randomness.
	Seed int64
	// Hidden/Batch shrink the paper's 128/512 for CPU-speed runs.
	Hidden int
	Batch  int
}

// DefaultOptions returns CI-scale settings.
func DefaultOptions() Options {
	return Options{
		TrainSteps: 12000,
		Periods:    10,
		Seed:       1,
		Hidden:     32,
		Batch:      64,
	}
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if o.TrainSteps <= 0 || o.Periods <= 0 || o.Hidden <= 0 || o.Batch <= 0 {
		return fmt.Errorf("experiments: invalid options %+v", o)
	}
	return nil
}

// systemConfig assembles a core.Config for the prototype-experiment setting
// with the given algorithm.
func (o Options) systemConfig(algo core.Algorithm) core.Config {
	cfg := core.DefaultConfig()
	cfg.Algo = algo
	cfg.TrainSteps = o.TrainSteps
	cfg.Seed = o.Seed
	cfg.DDPG.Hidden = o.Hidden
	cfg.DDPG.BatchSize = o.Batch
	return cfg
}

// runAlgo trains (if needed) and runs one algorithm for the option's period
// count, returning its history.
func (o Options) runAlgo(algo core.Algorithm, mutate func(*core.Config)) (*core.History, error) {
	cfg := o.systemConfig(algo)
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Train(); err != nil {
		return nil, err
	}
	return sys.RunPeriods(o.Periods)
}

// smooth applies a trailing moving average of width w.
func smooth(xs []float64, w int) []float64 {
	if w <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= w {
			sum -= xs[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
	return out
}

func indexSeries(name string, ys []float64) Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return Series{Name: name, X: xs, Y: ys}
}

// comparisonAlgos are the three algorithms of Sec. VII-B in plot order.
var comparisonAlgos = []core.Algorithm{core.AlgoEdgeSlice, core.AlgoEdgeSliceNT, core.AlgoTARO}

// Fig6 reproduces "The convergence of algorithms": (a) per-interval system
// performance for EdgeSlice, EdgeSlice-NT and TARO; (b) per-slice
// performance under EdgeSlice against the Umin/T line.
func Fig6(o Options) (*Figure, *Figure, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	figA := &Figure{ID: "fig6a", Title: "System performance vs time interval"}
	var edgeHist *core.History
	for _, algo := range comparisonAlgos {
		h, err := o.runAlgo(algo, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("fig6 %v: %w", algo, err)
		}
		figA.Series = append(figA.Series, indexSeries(algo.String(), smooth(h.IntervalColumn(0), 5)))
		if algo == core.AlgoEdgeSlice {
			edgeHist = h
		}
	}
	figB := &Figure{ID: "fig6b", Title: "Slice performance vs time interval (EdgeSlice)"}
	for i := 0; i < edgeHist.NumSlices; i++ {
		figB.Series = append(figB.Series,
			indexSeries(fmt.Sprintf("Slice %d", i+1), smooth(edgeHist.IntervalColumn(1+i), 5)))
	}
	// The SLA reference line: Umin spread across a period's intervals.
	umin := make([]float64, edgeHist.Intervals())
	for i := range umin {
		umin[i] = -50.0 / float64(edgeHist.T)
	}
	figB.Series = append(figB.Series, indexSeries("Umin/T", umin))
	figA.Notes = "paper: EdgeSlice converges above EdgeSlice-NT and TARO (3.69x / 2.74x gains)"
	figB.Notes = "paper: both slices meet their minimum performance requirement"
	return figA, figB, nil
}
