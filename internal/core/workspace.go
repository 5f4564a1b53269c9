package core

import (
	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
)

// periodWS is the storage the step → record → merge half of a period writes
// into. The System owns it and every engine reuses it period after period,
// so that half allocates nothing that scales with the number of RAs.
// Whoever steps RA j writes only RA j's elements, so concurrent workers on
// disjoint RAs never share a word, and nothing keeps a reference into the
// workspace past the merge (History and history log copy).
type periodWS struct {
	I, J, T int

	// The period grid the chunk steps write (the remote engine copies
	// reports in) and the merge reads: interval t, RA j, slice i's perf is
	// gridPerf[(t·J+j)·I+i], its shares gridEff[…], RA j's violation
	// gridViol[t·J+j].
	gridPerf []float64
	gridEff  [][netsim.NumResources]float64
	gridViol []float64

	acts []float64   // J baseline action rows
	rows [][]float64 // J: RA j's action of the interval being stepped

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
		I, J, T := s.cfg.EnvTemplate.NumSlices, s.cfg.NumRAs, s.cfg.EnvTemplate.T
		const K = netsim.NumResources
		s.ws = &periodWS{
			I: I, J: J, T: T,
			gridPerf:  make([]float64, T*J*I),
			gridEff:   make([][K]float64, T*J*I),
			gridViol:  make([]float64, T*J),
			acts:      make([]float64, J*I*K),
			rows:      make([][]float64, J),
			slicePerf: make([]float64, I),
			usage:     newGrid(I, K),
			perf:      newGrid(I, J),
			sla:       make([]bool, I),
		}
	}
	return s.ws
}

// interval returns interval t's rows of the period grid.
func (ws *periodWS) interval(t int) (perf []float64, eff [][netsim.NumResources]float64, viol []float64) {
	n := ws.J * ws.I
	return ws.gridPerf[t*n : (t+1)*n], ws.gridEff[t*n : (t+1)*n], ws.gridViol[t*ws.J : (t+1)*ws.J]
}

// baselineActions computes chunk c's RAs' baseline actions for the current
// interval into their action rows, TARO from the chunk's backlog column.
func (s *System) baselineActions(ws *periodWS, c int) error {
	ch, lo, I := s.chunks[c], s.chunkLo[c], ws.I
	n := I * netsim.NumResources
	for r := 0; r < ch.Len(); r++ {
		act := ws.acts[(lo+r)*n : (lo+r+1)*n]
		ws.rows[lo+r] = act
		if s.cfg.Algo == AlgoEqualShare {
			baseline.EqualShareInto(act, I)
		} else if err := baseline.TAROInto(act, ch.Backlog[r*I:(r+1)*I]); err != nil {
			return err
		}
	}
	return nil
}
