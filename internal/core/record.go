package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"edgeslice/internal/telemetry"
)

// RecordOptions configures how a System's executors record run history;
// the zero value records an exact in-memory History and no on-disk log.
type RecordOptions struct {
	// StreamWindow, when positive, makes RunPeriods and RunPeriodsWith
	// record into a streaming History (NewStreamingHistory) with this ring
	// window — O(window) memory regardless of run length.
	StreamWindow int
	// Log, when non-nil, receives every record the executors commit (the
	// append-only on-disk history); the caller closes it.
	Log *HistoryLog
}

// runStats is the System's live run telemetry: lock-free counters updated
// on the executor hot path plus the last period's coordinator state for
// health reporting.
type runStats struct {
	intervals atomic.Uint64
	periods   atomic.Uint64

	mu         sync.Mutex
	lastSLA    []bool
	lastPrimal float64
	lastDual   float64
	havePeriod bool
}

// SystemHealth is the JSON payload of the /healthz endpoint: run progress,
// the last ADMM residuals, and the per-slice SLA state of the most recent
// period. Residuals are zero until the first period completes.
type SystemHealth struct {
	Algorithm      string  `json:"algorithm"`
	NumSlices      int     `json:"num_slices"`
	NumRAs         int     `json:"num_ras"`
	Intervals      uint64  `json:"intervals"`
	Periods        uint64  `json:"periods"`
	PrimalResidual float64 `json:"primal_residual"`
	DualResidual   float64 `json:"dual_residual"`
	SLAMet         []bool  `json:"sla_met,omitempty"`
	Streaming      bool    `json:"streaming"`
	StreamWindow   int     `json:"stream_window,omitempty"`
	// Agent liveness of a remote coordinator (System.SetLiveness, wired to
	// rcnet.Hub.Liveness by the daemon). Omitted for local engines.
	AgentsLive       int `json:"agents_live,omitempty"`
	AgentsRegistered int `json:"agents_registered,omitempty"`
	AgentsExpected   int `json:"agents_expected,omitempty"`
}

// SetRecording configures history recording for subsequent runs: Log
// receives every record, and StreamWindow picks the History RunPeriods and
// RunPeriodsWith allocate (RunPeriodsInto records into the caller's).
func (s *System) SetRecording(opts RecordOptions) {
	s.rec = opts
	// The window also bounds Monitor, which only the benchmark's layer replay
	// still writes; ROADMAP item 3(e) deletes both.
	if opts.StreamWindow > 0 {
		s.mon.SetWindow(opts.StreamWindow)
	}
}

// newRunHistory allocates the History a run of n periods records into,
// honoring the configured recording mode; a streaming one's rings start at
// the run's length.
func (s *System) newRunHistory(n int) *History {
	I := s.cfg.EnvTemplate.NumSlices
	J := s.cfg.NumRAs
	T := s.cfg.EnvTemplate.T
	if s.rec.StreamWindow > 0 {
		return newStreamingHistory(I, J, T, s.rec.StreamWindow, n)
	}
	return NewHistory(I, J, T)
}

// commitInterval is the single point every executor records an interval
// through: the history append, the run counters, and the on-disk log.
func (s *System) commitInterval(h *History, sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) error {
	if err := h.AddInterval(sysPerf, slicePerf, usage, violation); err != nil {
		return err
	}
	s.stats.intervals.Add(1)
	if s.rec.Log != nil {
		if err := s.rec.Log.LogInterval(sysPerf, slicePerf, usage, violation); err != nil {
			return fmt.Errorf("core: history log: %w", err)
		}
	}
	return nil
}

// commitPeriod mirrors commitInterval for period records; runPeriods
// calls it after the ADMM update.
func (s *System) commitPeriod(h *History, perf [][]float64, sla []bool, primal, dual float64) error {
	if err := h.AddPeriod(perf, sla, primal, dual); err != nil {
		return err
	}
	s.stats.periods.Add(1)
	s.stats.mu.Lock()
	s.stats.lastSLA = append(s.stats.lastSLA[:0], sla...)
	s.stats.lastPrimal, s.stats.lastDual = primal, dual
	s.stats.havePeriod = true
	s.stats.mu.Unlock()
	if s.rec.Log != nil {
		if err := s.rec.Log.LogPeriod(perf, sla, primal, dual); err != nil {
			return fmt.Errorf("core: history log: %w", err)
		}
	}
	return nil
}

// MonitorDroppedSamples returns 0: no engine writes the monitor. ROADMAP
// item 3(e) deletes it with its last caller, the benchmark's gate.
func (s *System) MonitorDroppedSamples() uint64 { return 0 }

// Health returns the live run state served by /healthz.
func (s *System) Health() SystemHealth {
	h := SystemHealth{
		Algorithm:    s.cfg.Algo.String(),
		NumSlices:    s.cfg.EnvTemplate.NumSlices,
		NumRAs:       s.cfg.NumRAs,
		Intervals:    s.stats.intervals.Load(),
		Periods:      s.stats.periods.Load(),
		Streaming:    s.rec.StreamWindow > 0,
		StreamWindow: s.rec.StreamWindow,
	}
	s.stats.mu.Lock()
	if s.stats.havePeriod {
		h.PrimalResidual = s.stats.lastPrimal
		h.DualResidual = s.stats.lastDual
		h.SLAMet = append([]bool(nil), s.stats.lastSLA...)
	}
	s.stats.mu.Unlock()
	if s.liveness != nil {
		h.AgentsLive, h.AgentsRegistered, h.AgentsExpected = s.liveness()
	}
	return h
}

// SetLiveness installs the agent-liveness probe Health reports (a remote
// coordinator wires rcnet.Hub.Liveness here). Call before the health
// endpoint starts serving; nil clears it.
func (s *System) SetLiveness(fn func() (live, registered, expected int)) {
	s.liveness = fn
}

// EnableTelemetry exports the system's run counters and coordinator state
// through a telemetry registry (the /metrics surface). Idempotent per
// registry; the registry may be shared with other subsystems (rcnet,
// executors).
func (s *System) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("edgeslice_intervals_total",
		"orchestration intervals executed", s.stats.intervals.Load)
	reg.CounterFunc("edgeslice_periods_total",
		"configuration periods completed (ADMM updates)", s.stats.periods.Load)
	reg.GaugeFunc("edgeslice_primal_residual",
		"ADMM primal residual after the last period", func() float64 {
			s.stats.mu.Lock()
			defer s.stats.mu.Unlock()
			return s.stats.lastPrimal
		})
	reg.GaugeFunc("edgeslice_dual_residual",
		"ADMM dual residual after the last period", func() float64 {
			s.stats.mu.Lock()
			defer s.stats.mu.Unlock()
			return s.stats.lastDual
		})
	for i := 0; i < s.cfg.EnvTemplate.NumSlices; i++ {
		//edgeslice:dynname formatted once per slice at registration, bounded by NumSlices; exposition reads the cached family
		reg.GaugeFunc(fmt.Sprintf(`edgeslice_sla_met{slice="%d"}`, i),
			"1 when the slice's SLA held in the last period", func() float64 {
				s.stats.mu.Lock()
				defer s.stats.mu.Unlock()
				if i < len(s.stats.lastSLA) && s.stats.lastSLA[i] {
					return 1
				}
				return 0
			})
	}
}
