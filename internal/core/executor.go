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
// interface — and all record through the same (interval, RA, slice) merge,
// so Serial and Batched are bit-identical for any worker count, and Remote
// is identical when its agents run the same environments and policies.
type Executor interface {
	// Name reports the engine spelling ("serial", "batched", "remote").
	Name() string
	// RunPeriods executes Algorithm 1 for n periods on s, recording every
	// interval and period into h, the caller's History (exact or streaming)
	// of s's shape. Every engine merges a period only once all of its RAs
	// have stepped all T intervals, so a failing period leaves no record: on
	// error h holds exactly the periods that completed.
	RunPeriods(s *System, h *History, n int) error
	// Close releases executor resources (worker pools, network sessions).
	// A closed executor must not be reused.
	Close() error
}

// Engine spellings accepted by NewExecutor and the -engine CLI flags.
// EngineParallel names the retired per-RA worker-pool engine; NewExecutor
// resolves it to the batched engine.
const (
	EngineSerial   = "serial"
	EngineParallel = "parallel"
	EngineBatched  = "batched"
	EngineRemote   = "remote"
)

// NewExecutor resolves an in-process engine spelling: "serial" (or empty)
// or "batched" (workers ≤ 0 defaults to GOMAXPROCS); "parallel" resolves to
// the batched engine. The remote engine wraps a live hub: construct it with
// NewRemoteExecutor.
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

// distribute writes the coordinator's (Z, Y) columns into every chunk's
// coordination columns (phase 1 of Alg. 1: agents act under the
// coordinating information for all intervals in T).
func (s *System) distribute() {
	I := s.cfg.EnvTemplate.NumSlices
	for c, ch := range s.chunks {
		for r := 0; r < ch.Len(); r++ {
			s.coord.ColumnInto(s.chunkLo[c]+r, ch.Z[r*I:(r+1)*I], ch.Y[r*I:(r+1)*I])
		}
	}
}

// collectAndUpdate moves Σ_t U per slice of every RA from the chunks'
// period performance columns into the workspace's performance grid,
// resetting the columns, and finishes the period (phase 3).
func (s *System) collectAndUpdate(h *History) error {
	ws := s.workspace()
	for c, ch := range s.chunks {
		for r := 0; r < ch.Len(); r++ {
			for i, v := range ch.PeriodPerf[r*ws.I : (r+1)*ws.I] {
				ws.perf[i][s.chunkLo[c]+r] = v
			}
		}
		clear(ch.PeriodPerf)
	}
	return s.finishPeriod(h, ws.perf)
}

// finishPeriod runs the ADMM update on the collected performance grid and
// appends the period's coordinator-side records — shared by every
// executor, so local and remote runs produce identical SLA flags and
// residual series.
func (s *System) finishPeriod(h *History, perf [][]float64) error {
	if err := s.coord.Update(perf); err != nil {
		return err
	}
	sla := s.workspace().sla
	if err := s.coord.SLASatisfiedInto(perf, sla); err != nil {
		return err
	}
	primal, dual := s.coord.Residuals()
	return s.commitPeriod(h, perf, sla, primal, dual)
}

// mergePeriod merges the period grid's T intervals in order.
func (s *System) mergePeriod(h *History) error {
	for t := 0; t < s.workspace().T; t++ {
		if err := s.mergeInterval(h, t); err != nil {
			return err
		}
	}
	return nil
}

// mergeInterval folds every RA's result for interval t of the period grid
// into the history in the fixed (RA, slice) order every engine shares, so
// merged results are bit-identical whoever stepped the RAs, on however many
// workers, and in whatever order reports arrived. Driver goroutine only.
func (s *System) mergeInterval(h *History, t int) error {
	ws := s.workspace()
	perf, eff, viol := ws.interval(t)
	var sysPerf, violation float64
	for i := range ws.slicePerf {
		ws.slicePerf[i] = 0
		clear(ws.usage[i])
	}
	// One accumulator runs across all RAs, as the serial loop summed.
	for j, v := range viol {
		for i := range ws.slicePerf {
			x := j*ws.I + i
			sysPerf += perf[x]
			ws.slicePerf[i] += perf[x]
			for k, e := range eff[x] {
				ws.usage[i][k] += e
			}
		}
		violation += v
	}
	// The shares of the J RAs are summed first and divided once, so the
	// recorded value carries a single rounding instead of J.
	for i := range ws.usage {
		for k := range ws.usage[i] {
			ws.usage[i][k] /= float64(ws.J)
		}
	}
	return s.commitInterval(h, sysPerf, ws.slicePerf, ws.usage, violation)
}

// serialExecutor is the batch plan at one worker: chunk after chunk on the
// calling goroutine.
type serialExecutor struct{ BatchedExecutor }

// NewSerialExecutor returns the serial in-process engine — System.RunPeriods'
// default.
func NewSerialExecutor() Executor { return &serialExecutor{BatchedExecutor{workers: 1}} }

// Name implements Executor.
func (*serialExecutor) Name() string { return EngineSerial }
