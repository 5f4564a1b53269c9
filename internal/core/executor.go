package core

import (
	"fmt"
)

// Executor runs Algorithm 1 on a System, in three phases per period:
// distribute the coordinator's (Z, Y) columns into every RA; step T
// intervals of decentralized orchestration in every RA (the x-update) into
// the System's period grid; collect Σ_t U per slice per RA, run the ADMM
// (Z, Y) update and record the period. The engines differ only in where the
// step runs — Batched on workers pulling netsim chunks of at most 64 RAs,
// Serial on one worker, Remote in agent processes over the RC network
// interface — and all record through the same fold, RAs ascending, so
// Serial and Batched are bit-identical for any worker count, and Remote is
// identical when its agents run the same environments and policies.
type Executor interface {
	// Name reports the engine spelling ("serial", "batched", "remote").
	Name() string
	// RunPeriods executes Algorithm 1 for n periods on s, recording every
	// interval and period into h, the caller's History (exact or streaming)
	// of s's shape. Every engine commits a period only once all of its RAs
	// have stepped all T intervals, so a failing period leaves no record: on
	// error h holds exactly the periods that completed.
	RunPeriods(s *System, h *History, n int) error
	// Close releases executor resources (worker pools, network sessions).
	// A closed executor must not be reused.
	Close() error
}

// Engine names that Executor.Name reports and NewExecutor accepts.
// EngineParallel names the retired per-RA worker-pool engine; NewExecutor
// resolves it to the batched engine.
const (
	EngineSerial = "serial"
	//edgeslice:reach bench/ imports it until ROADMAP 3's bench half
	EngineParallel = "parallel"
	EngineBatched  = "batched"
	EngineRemote   = "remote"
)

// NewExecutor resolves an in-process engine spelling: "serial" (or empty)
// or "batched" (workers ≤ 0 defaults to GOMAXPROCS); "parallel" resolves to
// the batched engine. The remote engine wraps a live hub: construct it with
// NewRemoteExecutor. The commands build NewBatchedExecutor directly: one
// worker is the serial engine.
//
//edgeslice:reach bench/ imports it until ROADMAP 3's bench half
func NewExecutor(engine string, workers int) (Executor, error) {
	switch engine {
	case "", EngineSerial:
		return NewSerialExecutor(), nil
	case EngineBatched, EngineParallel:
		return NewBatchedExecutor(workers), nil
	case EngineRemote:
		return nil, fmt.Errorf("core: the remote engine wraps a live hub; construct it with NewRemoteExecutor")
	default:
		return nil, fmt.Errorf("core: unknown engine %q (want %q or %q)", engine, EngineSerial, EngineBatched)
	}
}

// checkRunnable validates the shared RunPeriods preconditions of the
// in-process executors.
func (s *System) checkRunnable(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: periods %d must be positive", n)
	}
	if !s.trained {
		return fmt.Errorf("core: RunPeriods before Train/SetAgents")
	}
	return nil
}

// periodStage is the step phase of Algorithm 1, the one part the engines
// do not share: step fills the workspace's period grid and ws.perf (Σ_t U
// per slice per RA) for period p under the coordinator's current (Z, Y),
// and recorded learns that period p's record is committed.
type periodStage interface {
	step(s *System, ws *periodWS, p int) error
	recorded(p int)
}

// runPeriods runs n periods of Algorithm 1 with st as the step phase, p
// counting on from the coordinator's iterations: st steps (and may fold)
// every RA, the rest fold, the T intervals commit, the ADMM (Z, Y) update
// and SLA check run on ws.perf, and the period commits — one path for every
// engine, so local and remote runs record identical intervals, SLA flags
// and residuals. A period whose step fails leaves no record.
func (s *System) runPeriods(h *History, n int, st periodStage) error {
	ws := s.workspace()
	for range n {
		p := s.coord.Iterations()
		ws.folded = 0
		if err := st.step(s, ws, p); err != nil {
			return err
		}
		ws.foldRAs(ws.folded, ws.J)
		for t := 0; t < ws.T; t++ {
			if err := s.mergeInterval(h, t); err != nil {
				return err
			}
		}
		if err := s.coord.Update(ws.perf); err != nil {
			return err
		}
		if err := s.coord.SLASatisfiedInto(ws.perf, ws.sla); err != nil {
			return err
		}
		primal, dual := s.coord.Residuals()
		if err := s.commitPeriod(h, ws.perf, ws.sla, primal, dual); err != nil {
			return err
		}
		st.recorded(p)
	}
	return nil
}

// mergeInterval commits interval t from the sums foldRAs built, whoever
// stepped the RAs and in whatever order reports arrived. The J RAs' shares
// are divided once, here, so their mean carries one rounding, not J.
func (s *System) mergeInterval(h *History, t int) error {
	ws := s.workspace()
	sum, usage := ws.sums[t*(ws.I+2):(t+1)*(ws.I+2)], ws.usage[t*ws.I:(t+1)*ws.I]
	for _, u := range usage {
		for k := range u {
			u[k] /= float64(ws.J)
		}
	}
	return s.commitInterval(h, sum[0], sum[2:], usage, sum[1])
}

// NewSerialExecutor returns the serial in-process engine — System.RunPeriods'
// default: the batch plan at one worker, chunk after chunk on the calling
// goroutine.
func NewSerialExecutor() Executor { return NewBatchedExecutor(1) }
