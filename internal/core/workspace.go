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
// period it was written for (History and history log copy).
type periodWS struct {
	I, J int

	// res[t][j] is RA j's StepInto target for interval t of the period (the
	// remote engine copies whole RA-period reports into column j); the
	// driver merges the T rows in order once every RA has stepped.
	res [][]netsim.StepResult

	acts   []float64 // J baseline action rows
	queues []int     // J × I queue-length rows (TARO's input)

	col       []float64   // I: one RA's coordination column or period perf
	col2      []float64   // I: the second coordination column
	slicePerf []float64   // I: Σ_j U_i of the interval being merged
	usage     [][]float64 // I × NumResources: Σ_j effective share, then the mean
	perf      [][]float64 // I × J: the period's Σ_t U grid handed to the coordinator
	sla       []bool      // I: the period's SLA flags
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
			res:       newResultGrid(s.cfg.EnvTemplate.T, J, I),
			acts:      make([]float64, J*I*netsim.NumResources),
			queues:    make([]int, J*I),
			col:       make([]float64, I),
			col2:      make([]float64, I),
			slicePerf: make([]float64, I),
			usage:     newGrid(I, netsim.NumResources),
			perf:      newGrid(I, J),
			sla:       make([]bool, I),
		}
	}
	return s.ws
}

// newResultGrid carves a T×J grid of I-slice step results out of four flat
// arrays and one row header, so a row's J results sit contiguously, StepInto
// finds every slice already at length I, and the allocation count does not
// depend on T.
func newResultGrid(T, J, I int) [][]netsim.StepResult {
	floats := make([]float64, 2*T*J*I)
	ints := make([]int, 3*T*J*I)
	eff := make([][netsim.NumResources]float64, T*J*I)
	flat := make([]netsim.StepResult, T*J)
	for r := range flat {
		f, n := floats[2*r*I:2*(r+1)*I], ints[3*r*I:3*(r+1)*I]
		flat[r] = netsim.StepResult{
			Perf:         f[:I:I],
			ServiceTimes: f[I : 2*I : 2*I],
			QueueLens:    n[:I:I],
			Served:       n[I : 2*I : 2*I],
			Arrived:      n[2*I : 3*I : 3*I],
			Effective:    eff[r*I : (r+1)*I : (r+1)*I],
		}
	}
	g := make([][]netsim.StepResult, T)
	for t := range g {
		g[t] = flat[t*J : (t+1)*J : (t+1)*J]
	}
	return g
}

// actionInto computes RA j's baseline action for the current interval into
// the RA's workspace row.
func (s *System) actionInto(ws *periodWS, j int) ([]float64, error) {
	env := s.envs[j]
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

// stepInto advances RA j one interval into res; a nil act means the
// system's baseline policy (actionInto).
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
