package core

import (
	"fmt"
)

// PrimeFromHistory fast-forwards a freshly built System through the
// completed periods of a previous run segment, recorded in h (typically
// replayed from the on-disk history log after a coordinator crash): it
// replays the ADMM updates over h's per-period performance grids (the
// coordinator's iteration count numbers the periods and intervals that
// follow) and primes the health counters — without stepping any
// environment. The returned zs/ys are the [period][slice][ra]
// coordination grids the coordinator held when each period was broadcast,
// exactly what rcnet.Hub.PrimeResume needs so re-registering agents can
// replay the same prefix.
//
// The continuation is bit-reproducible because the coordinator's (Z, Y)
// state is a pure function of the period performance sequence, and the
// agents' environment states are pure functions of their seeds and the
// coordination columns — both of which the log preserves.
//
// The system must be unused (no training-free periods run, no prior
// priming) and h must be an exact-mode history whose shape matches the
// system's configuration with a whole number of completed periods.
func (s *System) PrimeFromHistory(h *History) (zs, ys [][][]float64, err error) {
	if h == nil {
		return nil, nil, fmt.Errorf("core: prime from nil history")
	}
	if h.Streaming() {
		return nil, nil, fmt.Errorf("core: cannot prime from a streaming history; replay the on-disk log into an exact one")
	}
	I := s.cfg.EnvTemplate.NumSlices
	J := s.cfg.NumRAs
	T := s.cfg.EnvTemplate.T
	if h.NumSlices != I || h.NumRAs != J || h.T != T {
		return nil, nil, fmt.Errorf("core: history shape %dx%dxT=%d does not match system %dx%dxT=%d",
			h.NumSlices, h.NumRAs, h.T, I, J, T)
	}
	P := h.Periods()
	if h.Intervals() != P*T {
		return nil, nil, fmt.Errorf("core: history holds %d intervals for %d periods (want %d); resume only from whole periods",
			h.Intervals(), P, P*T)
	}
	if s.coord.Iterations() != 0 || s.stats.intervals.Load() != 0 {
		return nil, nil, fmt.Errorf("core: prime on a used system (%d ADMM iterations, %d intervals run)",
			s.coord.Iterations(), s.stats.intervals.Load())
	}
	zs = make([][][]float64, P)
	ys = make([][][]float64, P)
	for p := 0; p < P; p++ {
		zs[p] = s.coord.Z() // already deep copies
		ys[p] = s.coord.Y()
		perf, _, _, _ := h.Period(p)
		if err := s.coord.Update(perf); err != nil {
			return nil, nil, fmt.Errorf("core: replaying ADMM update for period %d: %w", p, err)
		}
	}
	s.stats.intervals.Add(uint64(P * T))
	s.stats.periods.Add(uint64(P))
	if P > 0 {
		s.stats.mu.Lock()
		_, s.stats.lastSLA, s.stats.lastPrimal, s.stats.lastDual = h.Period(P - 1)
		s.stats.havePeriod = true
		s.stats.mu.Unlock()
	}
	return zs, ys, nil
}
