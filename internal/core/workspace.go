package core

import (
	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
)

// periodWS is the storage the step → fold → record half of a period writes
// into. The System owns it and every engine reuses it period after period,
// so that half allocates nothing that scales with the number of RAs.
// Whoever steps RA j writes only RA j's elements, so concurrent workers on
// disjoint RAs never share a word, and nothing keeps a reference into the
// workspace past the commit (History and history log copy).
type periodWS struct {
	I, J, T int

	// The period grid the chunk steps write (the remote engine copies
	// reports in) and the fold reads: interval t, RA j, slice i's perf is
	// gridPerf[(t·J+j)·I+i], its shares gridEff[…], RA j's violation
	// gridViol[t·J+j].
	gridPerf []float64
	gridEff  [][netsim.NumResources]float64
	gridViol []float64

	acts []float64   // J baseline action rows
	rows [][]float64 // J: RA j's action of the interval being stepped

	// Interval t's sums over RAs [0, folded): Σ U, Σ violation, Σ_j U_i at
	// sums[t·(I+2):]; Σ_j shares, committed as their mean, at usage[t·I:].
	sums   []float64   // T·(I+2), carved from gridPerf's allocation
	usage  [][]float64 // T·I × NumResources
	folded int

	perf [][]float64 // I × J: the period's Σ_t U grid handed to the coordinator
	sla  []bool      // I: the period's SLA flags
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
		f := make([]float64, T*J*I+T*(I+2))
		s.ws = &periodWS{
			I: I, J: J, T: T,
			gridPerf: f[: T*J*I : T*J*I],
			gridEff:  make([][K]float64, T*J*I),
			gridViol: make([]float64, T*J),
			acts:     make([]float64, J*I*K),
			rows:     make([][]float64, J),
			sums:     f[T*J*I:],
			usage:    newGrid(T*I, K),
			perf:     newGrid(I, J),
			sla:      make([]bool, I),
		}
	}
	return s.ws
}

// interval returns interval t's rows of the period grid.
func (ws *periodWS) interval(t int) (perf []float64, eff [][netsim.NumResources]float64, viol []float64) {
	n := ws.J * ws.I
	return ws.gridPerf[t*n : (t+1)*n], ws.gridEff[t*n : (t+1)*n], ws.gridViol[t*ws.J : (t+1)*ws.J]
}

// foldRAs adds RAs [lo, hi) of every interval into the sums in a serial
// loop's (RA, slice) order, afresh at lo = 0: ascending ranges, each from
// the last hi, leave every accumulator one pass's bits. Driver only.
//
//edgeslice:noalloc
func (ws *periodWS) foldRAs(lo, hi int) {
	I := ws.I
	for t := 0; t < ws.T; t++ {
		perf, eff, viol := ws.interval(t)
		sum, usage := ws.sums[t*(I+2):(t+1)*(I+2)], ws.usage[t*I:(t+1)*I]
		if lo == 0 {
			clear(sum)
			for _, u := range usage {
				clear(u)
			}
		}
		sys, violation, slice := sum[0], sum[1], sum[2:]
		for j := lo; j < hi; j++ {
			for i, u := range usage {
				x := j*I + i
				sys += perf[x]
				slice[i] += perf[x]
				for k, e := range eff[x] {
					u[k] += e
				}
			}
			violation += viol[j]
		}
		sum[0], sum[1] = sys, violation
	}
	ws.folded = hi
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
