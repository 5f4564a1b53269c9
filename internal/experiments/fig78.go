package experiments

import (
	"fmt"

	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/traffic"
)

// Fig7 reproduces "The multiple resource orchestrations of EdgeSlice": the
// normalized usage of radio, transport and computing resources per slice
// over time. It returns one figure per resource domain.
func (l *Lab) Fig7() ([]*Figure, error) {
	cfg := l.o.systemConfig(core.AlgoEdgeSlice)
	h, err := l.runTrained(cfg)
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

// zeroCoord deploys a policy without central coordination (the Fig. 8
// setting): it acts with each state row's z−y entries — its last `slices`
// in the layout RAEnv.StateInto writes (Eq. 13) — cleared, as an RA sees
// them when no coordinator ever spoke.
type zeroCoord struct {
	p      *rl.DeployedPolicy
	slices int
}

func (z *zeroCoord) Act(state []float64) []float64 {
	s := append([]float64(nil), state...)
	clear(s[len(s)-z.slices:])
	return z.p.Act(s)
}

// ActBatch implements rl.BatchActor on a cleared copy of states.
func (z *zeroCoord) ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix {
	in := ws.Next(states.Rows, states.Cols)
	copy(in.Data, states.Data)
	for r := 0; r < in.Rows; r++ {
		clear(in.Row(r)[in.Cols-z.slices:])
	}
	return z.p.ActBatch(in, ws)
}

// singleRA runs algo on one RA under constant traffic loads for 3 periods,
// a learning algorithm's default agent behind zeroCoord, and returns the
// History.
func (l *Lab) singleRA(algo core.Algorithm, loads []float64, seed int64) (*core.History, error) {
	cfg := l.o.systemConfig(algo)
	var agent rl.Agent
	if algo.IsLearning() {
		p, err := l.policy(cfg)
		if err != nil {
			return nil, err
		}
		agent = &zeroCoord{p: p, slices: cfg.EnvTemplate.NumSlices}
	}
	cfg.NumRAs = 1
	cfg.Seed = seed
	cfg.EnvTemplate.Sources = make([]traffic.Source, len(loads))
	for i, v := range loads {
		cfg.EnvTemplate.Sources[i] = traffic.ConstantSource{Lambda: v}
	}
	return run(cfg, agent, 3)
}

// Fig8 reproduces "The performance of orchestration agents": (a) the CDF of
// per-period slice performance under random traffic loads for the three
// algorithms, and (b)-(d) the resource-usage ratio η1/η2 as a function of
// the two slices' traffic loads for EdgeSlice, EdgeSlice-NT, and TARO.
// Every point is a 1-RA system whose agent sees no coordination.
func (l *Lab) Fig8() (*Figure, []*Figure, error) {
	// (a) CDF of per-period slice performance under random loads.
	cdfFig := &Figure{
		ID:    "fig8a",
		Title: "CDF of slice performance under random traffic",
		Notes: "paper: 80% of EdgeSlice slice-performance above -30 vs 11% (TARO) and 55% (NT)",
	}
	rng := mathutil.NewRNG(l.o.Seed + 5)
	loads := make([][2]float64, 24)
	for i := range loads {
		loads[i] = [2]float64{5 + rng.Float64()*15, 5 + rng.Float64()*15}
	}
	for _, algo := range comparisonAlgos {
		var samples []float64
		for li, ld := range loads {
			h, err := l.singleRA(algo, ld[:], l.o.Seed+int64(li))
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
		cdfFig.Series = append(cdfFig.Series, cdfSeries(algo.String(), samples))
	}

	// (b)-(d) usage ratio vs traffic loads.
	grid := []float64{5, 10, 15, 20}
	notes := []string{
		"paper: ratio tracks both traffic load and per-domain resource needs",
		"paper: ratio is constant — the NT agent cannot observe traffic",
		"paper: ratio tracks traffic only, blind to per-domain needs",
	}
	var ratioFigs []*Figure
	for fi, algo := range comparisonAlgos {
		fig := &Figure{
			ID:    fmt.Sprintf("fig8%c", 'b'+fi),
			Title: fmt.Sprintf("Resource usage ratio η1/η2 vs traffic (%s)", algo),
			Notes: notes[fi],
		}
		for _, lb := range grid {
			s := Series{Name: fmt.Sprintf("slice2 load %.0f", lb)}
			for _, la := range grid {
				h, err := l.singleRA(algo, []float64{la, lb}, l.o.Seed+77)
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
		ratioFigs = append(ratioFigs, fig)
	}
	return cdfFig, ratioFigs, nil
}
