package experiments

import (
	"fmt"

	"edgeslice/internal/baseline"
	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/traffic"
)

// Fig7 reproduces "The multiple resource orchestrations of EdgeSlice": the
// normalized usage of radio, transport and computing resources per slice
// over time. It returns one figure per resource domain.
func Fig7(o Options) ([]*Figure, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	h, err := o.runAlgo(core.AlgoEdgeSlice, nil)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	figs := make([]*Figure, 0, netsim.NumResources)
	for k := 0; k < netsim.NumResources; k++ {
		fig := &Figure{
			ID:    fmt.Sprintf("fig7%c", 'a'+k),
			Title: fmt.Sprintf("Normalized %s resource usage", netsim.ResourceNames[k]),
			Notes: "paper: slice 1 dominates radio/transport, slice 2 dominates computing",
		}
		for i := 0; i < h.NumSlices; i++ {
			ys := h.IntervalColumn(1 + h.NumSlices + i*netsim.NumResources + k)
			fig.Series = append(fig.Series, indexSeries(fmt.Sprintf("Slice %d", i+1), smooth(ys, 5)))
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// runSingleRA evaluates one policy on a single, uncoordinated RA (the
// Fig. 8 setting: "the orchestration agent without any central
// coordination") under the given constant traffic loads, returning the
// history.
func runSingleRA(o Options, algo core.Algorithm, agent rl.Agent, loads []float64, periods int, seed int64) (*core.History, error) {
	envCfg := netsim.DefaultExperimentConfig()
	envCfg.TrainCoordRandom = false
	envCfg.ObserveQueue = algo != core.AlgoEdgeSliceNT
	envCfg.Seed = seed
	envCfg.Sources = make([]traffic.Source, len(loads))
	for i, l := range loads {
		envCfg.Sources[i] = traffic.ConstantSource{Lambda: l}
	}
	env, err := netsim.New(envCfg)
	if err != nil {
		return nil, err
	}
	env.Reset()
	h := core.NewHistory(envCfg.NumSlices, 1, envCfg.T)
	for p := 0; p < periods; p++ {
		for t := 0; t < envCfg.T; t++ {
			var act []float64
			switch algo {
			case core.AlgoEdgeSlice, core.AlgoEdgeSliceNT:
				act = agent.Act(env.State())
			case core.AlgoTARO:
				act, err = baseline.TARO(env.QueueLens(), netsim.NumResources)
				if err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("fig8: unsupported algorithm %v", algo)
			}
			res, err := env.StepInterval(act)
			if err != nil {
				return nil, err
			}
			var sys float64
			usage := make([][]float64, envCfg.NumSlices)
			slicePerf := make([]float64, envCfg.NumSlices)
			for i := 0; i < envCfg.NumSlices; i++ {
				sys += res.Perf[i]
				slicePerf[i] = res.Perf[i]
				usage[i] = make([]float64, netsim.NumResources)
				for k := 0; k < netsim.NumResources; k++ {
					usage[i][k] = res.Effective[i][k]
				}
			}
			if err := h.AddInterval(sys, slicePerf, usage, res.Violation); err != nil {
				return nil, err
			}
		}
		pp := env.PeriodPerf()
		perRA := make([][]float64, envCfg.NumSlices)
		for i := range pp {
			perRA[i] = []float64{pp[i]}
		}
		if err := h.AddPeriod(perRA, make([]bool, envCfg.NumSlices), 0, 0); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Fig8 reproduces "The performance of orchestration agents": (a) the CDF of
// per-period slice performance under random traffic loads for the three
// algorithms, and (b)-(d) the resource-usage ratio η1/η2 as a function of
// the two slices' traffic loads for EdgeSlice, EdgeSlice-NT, and TARO.
func Fig8(o Options) (*Figure, []*Figure, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	edgeAgent, err := trainPolicy(o.systemConfig(core.AlgoEdgeSlice))
	if err != nil {
		return nil, nil, fmt.Errorf("fig8 EdgeSlice agent: %w", err)
	}
	ntAgent, err := trainPolicy(o.systemConfig(core.AlgoEdgeSliceNT))
	if err != nil {
		return nil, nil, fmt.Errorf("fig8 NT agent: %w", err)
	}
	agents := map[core.Algorithm]rl.Agent{
		core.AlgoEdgeSlice:   edgeAgent,
		core.AlgoEdgeSliceNT: ntAgent,
		core.AlgoTARO:        nil,
	}

	// (a) CDF of per-period slice performance under random loads.
	cdfFig := &Figure{
		ID:    "fig8a",
		Title: "CDF of slice performance under random traffic",
		Notes: "paper: 80% of EdgeSlice slice-performance above -30 vs 11% (TARO) and 55% (NT)",
	}
	rng := mathutil.NewRNG(o.Seed + 5)
	type load2 struct{ a, b float64 }
	loads := make([]load2, 24)
	for i := range loads {
		loads[i] = load2{5 + rng.Float64()*15, 5 + rng.Float64()*15}
	}
	for _, algo := range comparisonAlgos {
		var samples []float64
		for li, l := range loads {
			h, err := runSingleRA(o, algo, agents[algo], []float64{l.a, l.b}, 3, o.Seed+int64(li))
			if err != nil {
				return nil, nil, fmt.Errorf("fig8a %v: %w", algo, err)
			}
			// Per-period per-slice performance normalized per interval.
			for p := 0; p < h.Periods(); p++ {
				period, _, _, _ := h.Period(p)
				for i := range period {
					samples = append(samples, period[i][0]/float64(h.T))
				}
			}
		}
		pts := mathutil.EmpiricalCDF(samples)
		s := Series{Name: algo.String()}
		for _, p := range pts {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Prob)
		}
		cdfFig.Series = append(cdfFig.Series, s)
	}

	// (b)-(d) usage ratio vs traffic loads.
	grid := []float64{5, 10, 15, 20}
	var ratioFigs []*Figure
	for fi, algo := range comparisonAlgos {
		fig := &Figure{
			ID:    fmt.Sprintf("fig8%c", 'b'+fi),
			Title: fmt.Sprintf("Resource usage ratio η1/η2 vs traffic (%s)", algo),
		}
		for _, lb := range grid {
			s := Series{Name: fmt.Sprintf("slice2 load %.0f", lb)}
			for _, la := range grid {
				h, err := runSingleRA(o, algo, agents[algo], []float64{la, lb}, 3, o.Seed+77)
				if err != nil {
					return nil, nil, fmt.Errorf("fig8 ratio %v: %w", algo, err)
				}
				ratio, err := h.UsageRatio(0, 1, 0)
				if err != nil {
					return nil, nil, err
				}
				s.X = append(s.X, la)
				s.Y = append(s.Y, ratio)
			}
			fig.Series = append(fig.Series, s)
		}
		switch algo {
		case core.AlgoEdgeSlice:
			fig.Notes = "paper: ratio tracks both traffic load and per-domain resource needs"
		case core.AlgoEdgeSliceNT:
			fig.Notes = "paper: ratio is constant — the NT agent cannot observe traffic"
		case core.AlgoTARO:
			fig.Notes = "paper: ratio tracks traffic only, blind to per-domain needs"
		}
		ratioFigs = append(ratioFigs, fig)
	}
	return cdfFig, ratioFigs, nil
}
