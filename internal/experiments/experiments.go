// Package experiments regenerates every figure of the paper's evaluation
// (Sec. VII) against the simulated substrates: each FigN method of a Lab
// runs the corresponding workload as core.Config runs through System and
// reduces their Histories to the data series the paper plots.
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
	"reflect"
	"slices"

	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/rl"
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

// Lab is one run context: validated options and every agent trained so
// far, so that each distinct agent trains once however many figures deploy
// it, as the paper trains an agent once and deploys it everywhere (Sec. V).
type Lab struct {
	o Options
	// policies maps the training key of a config (core.TrainingKey) to
	// the policy System.Train trained from it.
	policies map[string]*rl.DeployedPolicy
	runs     []labRun // every History run so far
}

// labRun is one recorded run: cfg under agent for periods.
type labRun struct {
	cfg     core.Config
	agent   rl.Agent
	periods int
	h       *core.History
}

// New validates o and returns an empty run context.
func New(o Options) (*Lab, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &Lab{o: o, policies: make(map[string]*rl.DeployedPolicy)}, nil
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

// policy returns the acting policy System.Train trains from cfg, training
// it on the first request for its key only.
func (l *Lab) policy(cfg core.Config) (*rl.DeployedPolicy, error) {
	key, err := core.TrainingKey(cfg)
	if err != nil {
		return nil, err
	}
	if p, ok := l.policies[key]; ok {
		return p, nil
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Train(); err != nil {
		return nil, err
	}
	actor, err := sys.Actor(0)
	if err != nil {
		return nil, err
	}
	p := rl.NewDeployedPolicy(actor, false)
	l.policies[key] = p
	return p, nil
}

// run builds cfg's system, installs agent as every RA's policy (nil: a
// baseline, which Train prepares) and runs it for the given periods. It
// never trains: every agent comes from Lab.policy or Fig. 10(b)'s trainers.
func run(cfg core.Config, agent rl.Agent, periods int) (*core.History, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	switch {
	case agent != nil:
		err = sys.SetAgents([]rl.Agent{agent})
	case cfg.Algo.IsLearning():
		err = fmt.Errorf("experiments: %v run without a trained agent", cfg.Algo)
	default:
		err = sys.Train()
	}
	if err != nil {
		return nil, err
	}
	return sys.RunPeriods(periods)
}

// run is run once per distinct run: the same config (by reflect.DeepEqual)
// under the same agent for the same periods records the same History, so a
// repeat returns the first. A config holding a func never matches.
func (l *Lab) run(cfg core.Config, agent rl.Agent, periods int) (*core.History, error) {
	for _, r := range l.runs {
		if r.agent == agent && r.periods == periods && reflect.DeepEqual(r.cfg, cfg) {
			return r.h, nil
		}
	}
	h, err := run(cfg, agent, periods)
	if err != nil {
		return nil, err
	}
	l.runs = append(l.runs, labRun{cfg: cfg, agent: agent, periods: periods, h: h})
	return h, nil
}

// runTrained runs cfg for the options' periods under the policy trained
// from it, or under its baseline for a non-learning algorithm.
func (l *Lab) runTrained(cfg core.Config) (*core.History, error) {
	var agent rl.Agent
	if cfg.Algo.IsLearning() {
		p, err := l.policy(cfg)
		if err != nil {
			return nil, err
		}
		agent = p
	}
	return l.run(cfg, agent, l.o.Periods)
}

// steadySeries plots the steady-state system performance (the mean over
// the second half of the run) of each comparison algorithm at every x:
// at(algo, x) gives the system to run there, and perX divides each value
// by x (performance per RA or per slice).
func (l *Lab) steadySeries(xs []float64, perX bool, at func(core.Algorithm, float64) (core.Config, error)) ([]Series, error) {
	var out []Series
	for _, algo := range comparisonAlgos {
		s := Series{Name: algo.String()}
		for _, x := range xs {
			cfg, err := at(algo, x)
			if err != nil {
				return nil, err
			}
			y, err := steady(l.runTrained(cfg))
			if err != nil {
				return nil, fmt.Errorf("%v at %v: %w", algo, x, err)
			}
			if perX {
				y /= x
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		out = append(out, s)
	}
	return out, nil
}

// steady is the steady-state system performance of a run: the mean over
// the second half of its History.
func steady(h *core.History, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return h.MeanSystemPerf(h.Intervals() / 2)
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
		out[i] = sum / float64(min(i+1, w))
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

// cdfSeries is the empirical CDF of samples as a series.
func cdfSeries(name string, samples []float64) Series {
	s := Series{Name: name}
	for _, p := range mathutil.EmpiricalCDF(samples) {
		s.X = append(s.X, p.Value)
		s.Y = append(s.Y, p.Prob)
	}
	return s
}

// comparisonAlgos are the three algorithms of Sec. VII-B in plot order.
var comparisonAlgos = []core.Algorithm{core.AlgoEdgeSlice, core.AlgoEdgeSliceNT, core.AlgoTARO}

// Fig6 reproduces "The convergence of algorithms": (a) per-interval system
// performance for EdgeSlice, EdgeSlice-NT and TARO; (b) per-slice
// performance under EdgeSlice against the Umin/T line.
func (l *Lab) Fig6() (*Figure, *Figure, error) {
	figA := &Figure{ID: "fig6a", Title: "System performance vs time interval"}
	var edgeHist *core.History
	for _, algo := range comparisonAlgos {
		cfg := l.o.systemConfig(algo)
		h, err := l.runTrained(cfg)
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
	umin := slices.Repeat([]float64{core.PaperUmin / float64(edgeHist.T)}, edgeHist.Intervals())
	figB.Series = append(figB.Series, indexSeries("Umin/T", umin))
	figA.Notes = "paper: EdgeSlice converges above EdgeSlice-NT and TARO (3.69x / 2.74x gains)"
	figB.Notes = "paper: both slices meet their minimum performance requirement"
	return figA, figB, nil
}
