package core

import (
	"fmt"

	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
)

// periodWS is the storage the step → record → merge half of a period writes
// into. The System owns it and every engine reuses it period after period,
// so that half allocates nothing that scales with the number of RAs.
//
// Ownership rule: whoever steps RA j writes only res[·][j] and row j of
// acts/queues, so concurrent workers on disjoint RAs never share a word;
// and nothing keeps a reference into the workspace past the merge of the
// interval it was written for (History, history log and monitor copy).
type periodWS struct {
	I, J int

	// res[r][j] is RA j's StepInto target: row 0 for an engine that merges
	// interval by interval, one row per interval for the remote engine, which
	// copies whole RA-period reports in before merging.
	res [][]netsim.StepResult

	acts   []float64 // J action rows; baseline policies write theirs here
	queues []int     // J × I queue-length rows (TARO's input)

	col       []float64   // I: one RA's coordination column or period perf
	col2      []float64   // I: the second coordination column
	slicePerf []float64   // I: Σ_j U_i of the interval being merged
	samples   []float64   // J × I × numMonKinds: the interval's monitor row, (RA, slice, kind)-major
	usage     [][]float64 // I × NumResources: Σ_j effective share, then the mean
	perf      [][]float64 // I × J: the period's Σ_t U grid handed to the coordinator
	sla       []bool      // I: the period's SLA flags

	monGroup int // the monitor row group samples is recorded into; −1 until monitorGroup registers it
}

func newGrid(rows, cols int) [][]float64 {
	flat := make([]float64, rows*cols)
	g := make([][]float64, rows)
	for r := range g {
		g[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return g
}

// workspace returns the system's period workspace, building it on first use.
func (s *System) workspace() *periodWS {
	if s.ws == nil {
		I, J := s.cfg.EnvTemplate.NumSlices, s.cfg.NumRAs
		s.ws = &periodWS{
			I: I, J: J,
			acts:      make([]float64, J*I*netsim.NumResources),
			queues:    make([]int, J*I),
			col:       make([]float64, I),
			col2:      make([]float64, I),
			slicePerf: make([]float64, I),
			samples:   make([]float64, J*I*numMonKinds),
			usage:     newGrid(I, netsim.NumResources),
			perf:      newGrid(I, J),
			sla:       make([]bool, I),
			monGroup:  -1,
		}
	}
	return s.ws
}

// results returns the first rows rows of res, carving missing ones out of
// flat per-row arrays so a row's J results sit contiguously and StepInto
// finds every slice already at length I.
func (w *periodWS) results(rows int) [][]netsim.StepResult {
	I, J := w.I, w.J
	for len(w.res) < rows {
		floats := make([]float64, 2*J*I)
		ints := make([]int, 3*J*I)
		eff := make([][netsim.NumResources]float64, J*I)
		row := make([]netsim.StepResult, J)
		for j := range row {
			f, n := floats[2*j*I:2*(j+1)*I], ints[3*j*I:3*(j+1)*I]
			row[j] = netsim.StepResult{
				Perf:         f[:I:I],
				ServiceTimes: f[I : 2*I : 2*I],
				QueueLens:    n[:I:I],
				Served:       n[I : 2*I : 2*I],
				Arrived:      n[2*I : 3*I : 3*I],
				Effective:    eff[j*I : (j+1)*I : (j+1)*I],
			}
		}
		w.res = append(w.res, row)
	}
	return w.res[:rows]
}

// actionInto computes RA j's orchestration action for the current interval.
// Baseline policies write into the RA's workspace row; a learning agent
// returns its own (allocated) action.
func (s *System) actionInto(ws *periodWS, j int) ([]float64, error) {
	env := s.envs[j]
	if s.cfg.Algo.IsLearning() {
		return s.agents[j].Act(env.State()), nil
	}
	n := ws.I * netsim.NumResources
	act := ws.acts[j*n : (j+1)*n]
	if s.cfg.Algo == AlgoEqualShare {
		baseline.EqualShareInto(act, ws.I)
		return act, nil
	}
	q := ws.queues[j*ws.I : (j+1)*ws.I]
	env.QueueLensInto(q)
	return act, baseline.TAROInto(act, q)
}

// stepInto advances RA j one interval into res; a nil act means the RA's own
// policy (actionInto).
func (s *System) stepInto(ws *periodWS, j, interval int, act []float64, res *netsim.StepResult) error {
	if act == nil {
		var err error
		if act, err = s.actionInto(ws, j); err != nil {
			return err
		}
	}
	if err := s.envs[j].StepInto(act, res); err != nil {
		return fmt.Errorf("core: RA %d interval %d: %w", j, interval, err)
	}
	return nil
}
