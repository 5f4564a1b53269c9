package core

import (
	"fmt"
	"time"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
)

// RemoteExecutor runs Algorithm 1 with the step phase in remote agent
// processes (rcnet.RunAgent) behind the hub, merging their per-interval
// records through the local engines' fold: a distributed run records a
// local run's History, SLA flags and residuals whenever the agents step
// the same environments and policies. The System supplies only the shape
// and the coordinator; it need not be trained.
//
// With RemoteOptions.RetryPeriods > 0 the executor tolerates agent churn:
// a collect timeout re-broadcasts the in-flight period only to the RAs
// whose reports are still missing (re-registered agents replayed the run
// prefix from their resume frame; survivors are never asked to step a
// period twice) and keeps the reports that did arrive, so the merged
// result is bit-identical to an uninterrupted run.
type RemoteExecutor struct {
	hub  *rcnet.Hub
	opts RemoteOptions

	// Period scratch sized by the hub's shape: collect buffers and
	// coordination grids, reused so a warm period allocates nothing here.
	// Accessed only from RunPeriods, which is single-driver.
	reports []rcnet.Envelope
	got     []bool
	missing []int
	z, y    [][]float64
}

// RemoteOptions tunes the remote engine's fault handling.
type RemoteOptions struct {
	// Timeout bounds each collection attempt for a period's reports.
	Timeout time.Duration
	// RetryPeriods is how many extra collection attempts a period gets
	// after a timeout, each preceded by a re-broadcast to the missing RAs.
	// 0 preserves the historical fail-fast behavior.
	RetryPeriods int
}

// NewRemoteExecutor wraps a live hub; timeout bounds each period's report
// collection. The executor takes ownership of the session: Close shuts
// the hub down.
func NewRemoteExecutor(hub *rcnet.Hub, timeout time.Duration) *RemoteExecutor {
	return NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: timeout})
}

// NewRemoteExecutorWithOptions wraps a live hub with explicit fault-handling
// options. The executor takes ownership of the session: Close shuts the hub
// down.
func NewRemoteExecutorWithOptions(hub *rcnet.Hub, opts RemoteOptions) *RemoteExecutor {
	I, J := hub.NumSlices(), hub.NumRAs()
	return &RemoteExecutor{
		hub: hub, opts: opts,
		reports: make([]rcnet.Envelope, J), got: make([]bool, J), missing: make([]int, 0, J),
		z: newGrid(I, J), y: newGrid(I, J),
	}
}

// Name implements Executor.
func (e *RemoteExecutor) Name() string { return EngineRemote }

// Close implements Executor: it shuts down the hub session (idempotent).
func (e *RemoteExecutor) Close() error { return e.hub.Shutdown() }

// RunPeriods implements Executor. Period ids continue across calls from
// the coordinator's iteration count, so period-at-a-time and resumed runs
// broadcast the globally consistent ids replay and retry rely on. On
// failure h keeps every period that fully completed; the period an agent
// dropped in fails at collection and leaves no record
// (TestRemotePartialHistoryOnDroppedAgent).
func (e *RemoteExecutor) RunPeriods(s *System, h *History, n int) error {
	if n <= 0 {
		return fmt.Errorf("core: periods %d must be positive", n)
	}
	I, J := s.cfg.EnvTemplate.NumSlices, s.cfg.NumRAs
	if e.hub.NumSlices() != I || e.hub.NumRAs() != J {
		return fmt.Errorf("core: hub coordinates %d slices x %d RAs, system is %d x %d",
			e.hub.NumSlices(), e.hub.NumRAs(), I, J)
	}
	return s.runPeriods(h, n, e)
}

// step implements periodStage: it broadcasts period p's coordination grids,
// collects every RA's report, retrying up to RetryPeriods times on timeout,
// and copies the reports into ws.perf and the period grid. Each retry
// re-broadcasts only to the RAs still missing and keeps the partial report
// set, so agents that already stepped the period are never double-stepped.
func (e *RemoteExecutor) step(s *System, ws *periodWS, p int) error {
	s.coord.GridsInto(e.z, e.y)
	clear(e.got)
	for a := 0; ; a++ {
		last := a >= e.opts.RetryPeriods
		e.missing = e.missing[:0]
		for j, got := range e.got {
			if !got {
				e.missing = append(e.missing, j)
			}
		}
		bErr := e.hub.BroadcastTo(p, e.z, e.y, e.missing)
		if bErr != nil && last {
			return fmt.Errorf("core: remote period %d: %w", p, bErr)
		}
		_, cErr := e.hub.CollectReportsInto(p, e.opts.Timeout, e.reports, e.got)
		if cErr == nil {
			break
		}
		if last {
			return fmt.Errorf("core: remote period %d: %w", p, cErr)
		}
	}
	for j := range e.reports {
		if err := decodeReport(&e.reports[j], j, ws); err != nil {
			return fmt.Errorf("core: remote period %d: %w", p, err)
		}
	}
	return nil
}

// recorded implements periodStage: re-registering agents must replay
// through period p.
func (e *RemoteExecutor) recorded(p int) { e.hub.FinishPeriod(p) }

// decodeReport validates one agent report against the run's shape and
// copies its Σ_t U into RA j's column of ws.perf and its per-interval
// records into RA j's elements of the period grid: the fold never reads
// the envelope's slices.
func decodeReport(rep *rcnet.Envelope, j int, ws *periodWS) error {
	I := ws.I
	if len(rep.Perf) != I {
		return fmt.Errorf("core: RA %d reported %d slices, want %d", j, len(rep.Perf), I)
	}
	for i, v := range rep.Perf {
		ws.perf[i][j] = v
	}
	if len(rep.Intervals) == 0 {
		return fmt.Errorf("core: RA %d report carries no interval records (pre-engine agent build?); upgrade the agent to one that runs rcnet.RunAgent", rep.RA)
	}
	if len(rep.Intervals) != ws.T {
		return fmt.Errorf("core: RA %d reported %d intervals, want %d", rep.RA, len(rep.Intervals), ws.T)
	}
	for t, ir := range rep.Intervals {
		if len(ir.Perf) != I || len(ir.Queues) != I || len(ir.Effective) != I {
			return fmt.Errorf("core: RA %d interval %d record has %d/%d/%d slices, want %d",
				rep.RA, t, len(ir.Perf), len(ir.Queues), len(ir.Effective), I)
		}
		perf, eff, viol := ws.interval(t)
		for i, row := range ir.Effective {
			if len(row) != netsim.NumResources {
				return fmt.Errorf("core: RA %d interval %d slice %d has %d resources, want %d",
					rep.RA, t, i, len(row), netsim.NumResources)
			}
			copy(eff[j*I+i][:], row)
		}
		copy(perf[j*I:(j+1)*I], ir.Perf)
		viol[j] = ir.Violation
	}
	return nil
}
