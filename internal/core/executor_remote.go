package core

import (
	"fmt"
	"time"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
)

// RemoteExecutor runs Algorithm 1 with the step phase executing in remote
// agent processes over the RC network interface: phase 1 broadcasts the
// coordination grids through the hub, phase 2 happens inside each agent
// (rcnet.RunAgent), and the agents' per-interval records are merged here
// in deterministic RA order — the same merge every local engine uses —
// so a distributed run records the same History, monitor series, SLA
// flags, and primal/dual residuals as a local one.
//
// The System supplies the run's shape (slices, RAs, T), the ADMM
// coordinator, and the monitor; its local environments and agents are
// never touched — the environments of record live in the agent processes.
// The system therefore does not need to be trained, and determinism
// versus a local run holds exactly when the remote agents step
// identically-configured environments with the same policies.
//
// With RemoteOptions.RetryPeriods > 0 the executor tolerates agent churn:
// a collect timeout re-broadcasts the in-flight period only to the RAs
// whose reports are still missing (re-registered agents replayed the run
// prefix from their resume frame and are ready for it; survivors that
// already stepped the period are never asked to step it twice) and keeps
// the reports that did arrive, so the merged result is bit-identical to an
// uninterrupted run.
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
	if opts.RetryPeriods < 0 {
		opts.RetryPeriods = 0
	}
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

// collectPeriod broadcasts period p's coordination grids and collects every
// RA's report into e.reports, retrying up to RetryPeriods times on timeout.
// Each retry re-broadcasts only to the RAs still missing and keeps the
// partial report set, so agents that already stepped the period are never
// double-stepped.
func (e *RemoteExecutor) collectPeriod(s *System, p int) error {
	s.coord.GridsInto(e.z, e.y)
	clear(e.got)
	for a := 0; ; a++ {
		last := a == e.opts.RetryPeriods
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
			return nil
		}
		if last {
			return fmt.Errorf("core: remote period %d: %w", p, cErr)
		}
	}
}

// RunPeriods implements Executor.
//
// Period numbering continues across calls: the first period of this call is
// the coordinator's current iteration count, so period-at-a-time driving
// (scenario runner) and resumed runs broadcast globally consistent period
// ids — which the fault-tolerance protocol relies on for replay and retry.
//
// Partial-history contract: on failure h keeps the records of every period
// that fully completed — broadcast, collect, merge, and ADMM update — so a
// dropped agent mid-run does not discard the periods already recorded, and
// the period it dropped in, which fails at collection, leaves no record
// (TestRemotePartialHistoryOnDroppedAgent).
func (e *RemoteExecutor) RunPeriods(s *System, h *History, n int) error {
	if n <= 0 {
		return fmt.Errorf("core: periods %d must be positive", n)
	}
	I := s.cfg.EnvTemplate.NumSlices
	J := s.cfg.NumRAs
	T := s.cfg.EnvTemplate.T
	if e.hub.NumSlices() != I || e.hub.NumRAs() != J {
		return fmt.Errorf("core: hub coordinates %d slices x %d RAs, system is %d x %d",
			e.hub.NumSlices(), e.hub.NumRAs(), I, J)
	}
	ws := s.workspace()
	res := ws.results(T) // [interval][RA]: reports are copied into it

	start := s.coord.Iterations()
	for k := 0; k < n; k++ {
		p := start + k
		if err := e.collectPeriod(s, p); err != nil {
			return err
		}
		for j := 0; j < J; j++ {
			rep := &e.reports[j]
			if len(rep.Perf) != I {
				return fmt.Errorf("core: RA %d reported %d slices, want %d", j, len(rep.Perf), I)
			}
			for i := 0; i < I; i++ {
				ws.perf[i][j] = rep.Perf[i]
			}
			if err := decodeIntervals(rep, j, I, res); err != nil {
				return fmt.Errorf("core: remote period %d: %w", p, err)
			}
		}
		base := s.intervalsRun
		s.intervalsRun += T
		for t := range res {
			if err := s.mergeInterval(h, base+t, res[t]); err != nil {
				return err
			}
		}
		if err := s.finishPeriod(h, ws.perf); err != nil {
			return err
		}
		e.hub.FinishPeriod(p)
	}
	return nil
}

// decodeIntervals validates one agent report's per-interval records against
// the run's shape and copies them into column j of res
// ([interval][RA]) — the merge reads only workspace-owned storage, never the
// envelope's slices.
func decodeIntervals(rep *rcnet.Envelope, j, I int, res [][]netsim.StepResult) error {
	if len(rep.Intervals) == 0 {
		return fmt.Errorf("core: RA %d report carries no interval records (pre-engine agent build?); upgrade the agent to one that runs rcnet.RunAgent", rep.RA)
	}
	if len(rep.Intervals) != len(res) {
		return fmt.Errorf("core: RA %d reported %d intervals, want %d", rep.RA, len(rep.Intervals), len(res))
	}
	for t, ir := range rep.Intervals {
		if len(ir.Perf) != I || len(ir.Queues) != I || len(ir.Effective) != I {
			return fmt.Errorf("core: RA %d interval %d record has %d/%d/%d slices, want %d",
				rep.RA, t, len(ir.Perf), len(ir.Queues), len(ir.Effective), I)
		}
		r := &res[t][j]
		for i, row := range ir.Effective {
			if len(row) != netsim.NumResources {
				return fmt.Errorf("core: RA %d interval %d slice %d has %d resources, want %d",
					rep.RA, t, i, len(row), netsim.NumResources)
			}
			copy(r.Effective[i][:], row)
		}
		copy(r.Perf, ir.Perf)
		copy(r.QueueLens, ir.Queues)
		r.Violation = ir.Violation
	}
	return nil
}
