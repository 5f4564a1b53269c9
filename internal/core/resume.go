package core

import (
	"fmt"
)

// PrimeFromHistory fast-forwards an unused System through the completed
// periods recorded in h, an exact History of the system's shape holding
// whole periods (typically the on-disk log replayed after a coordinator
// crash): it replays the ADMM updates over h's performance grids and primes
// the health counters, stepping no environment. zs/ys are the
// [period][slice][ra] grids each period was broadcast with, what
// rcnet.Hub.PrimeResume needs for re-registering agents to replay the
// prefix. The continuation is bit-reproducible: (Z, Y) is a pure function
// of the period performances, and each environment of its seed and the
// coordination columns, all of which the log preserves.
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
