package core

import (
	"fmt"

	"edgeslice/internal/netsim"
)

// Executor runs Algorithm 1 on a System. Every implementation executes the
// same three phases per period:
//
//  1. distribute — push the coordinator's (Z, Y) columns into every RA;
//  2. step — run T intervals of decentralized orchestration in every RA
//     (the x-update), recording per-interval outcomes;
//  3. collect — gather Σ_t U per slice per RA, run the ADMM (Z, Y) update,
//     and record the period's SLA flags and primal/dual residuals.
//
// The implementations differ only in where phase 2 executes: Batched runs
// one wide forward per policy group per interval and steps the RAs in chunks
// shared among its workers, Serial is that batch plan at one worker, and
// Remote steps them in separate agent processes over the RC network
// interface. Every engine steps into the System's period workspace and
// records through the same fixed (interval, RA, slice) merge, so Serial and
// Batched are bit-identical for any worker count; Remote is identical to
// Serial when the remote agents run the same environments and policies.
type Executor interface {
	// Name reports the engine spelling ("serial", "batched", "remote").
	Name() string
	// RunPeriods executes Algorithm 1 for n periods on s, recording every
	// interval and period into h, the caller's History (exact or streaming)
	// of s's shape. On error h keeps every record committed before the
	// failure: for the remote engine, each period that fully completed.
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
// and "batched" (one wide forward pass per policy group per interval;
// workers shard the matmul and the environment stepping, ≤ 0 defaults to
// GOMAXPROCS). "parallel" resolves to the batched engine.
// The remote engine needs a live hub and timeout; construct it with
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

// distribute pushes the coordinator's (Z, Y) columns into every RA (phase 1
// of Alg. 1: agents act under the coordinating information for all
// intervals in T).
func (s *System) distribute() error {
	ws := s.workspace()
	for j := range s.envs {
		s.coord.ColumnInto(j, ws.col, ws.col2)
		if err := s.envs[j].SetCoordination(ws.col, ws.col2); err != nil {
			return err
		}
	}
	return nil
}

// collectPerf moves Σ_t U per slice of every RA into the workspace's
// performance grid, resetting the environments' accumulators.
func (s *System) collectPerf() {
	ws := s.workspace()
	for j := range s.envs {
		s.envs[j].PeriodPerfInto(ws.col)
		for i, v := range ws.col {
			ws.perf[i][j] = v
		}
	}
}

// collectAndUpdate gathers Σ_t U per slice per RA from the local
// environments and finishes the period (phase 3).
func (s *System) collectAndUpdate(h *History) error {
	s.collectPerf()
	return s.finishPeriod(h, s.workspace().perf)
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

// mergeInterval folds every RA's result for one interval into the history
// and the monitor in fixed (RA, slice) order — the one summation and
// recording order every engine shares — so merged results are bit-identical
// regardless of who stepped the RAs, on how many workers, or in what order
// reports arrived. It runs on the driver goroutine only.
func (s *System) mergeInterval(h *History, interval int, res []netsim.StepResult) error {
	ws := s.workspace()
	group, err := s.monitorGroup(ws)
	if err != nil {
		return err
	}
	var sysPerf, violation float64
	for i := range ws.slicePerf {
		ws.slicePerf[i] = 0
		for k := range ws.usage[i] {
			ws.usage[i][k] = 0
		}
	}
	for j := range res {
		sysPerf = mergeRA(ws, ws.samples[j*ws.I*numMonKinds:], &res[j], sysPerf)
		violation += res[j].Violation
	}
	// One monitor call per interval: the samples of all RAs go in as one row
	// under a single lock, counting rejected writes (out-of-order intervals)
	// instead of silently dropping them.
	if n := s.mon.RecordRow(group, interval, ws.samples); n > 0 {
		s.stats.monDropped.Add(uint64(n))
	}
	// The shares of the J RAs are summed first and divided once, so the
	// recorded value carries a single rounding instead of J.
	for i := range ws.usage {
		for k := range ws.usage[i] {
			ws.usage[i][k] /= float64(len(res))
		}
	}
	return s.commitInterval(h, sysPerf, ws.slicePerf, ws.usage, violation)
}

// mergeRA adds one RA's interval result to the workspace's per-slice sums
// and to the running system sum sysPerf (returned; one accumulator across
// all RAs, as the serial loop always summed), and stages its monitor samples
// (slice-major, perf then queue — the order of monitorGroup) in samples.
//
//edgeslice:noalloc
func mergeRA(ws *periodWS, samples []float64, res *netsim.StepResult, sysPerf float64) float64 {
	for i := range ws.slicePerf {
		sysPerf += res.Perf[i]
		ws.slicePerf[i] += res.Perf[i]
		for k := 0; k < netsim.NumResources; k++ {
			ws.usage[i][k] += res.Effective[i][k]
		}
		samples[i*numMonKinds+monPerf] = res.Perf[i]
		samples[i*numMonKinds+monQueue] = float64(res.QueueLens[i])
	}
	return sysPerf
}

// serialExecutor is the batch plan at one worker: every interval, one
// gather and one wide forward per policy group, then the RAs step one after
// another in RA order on the calling goroutine.
type serialExecutor struct{ BatchedExecutor }

// NewSerialExecutor returns the serial in-process engine — System.RunPeriods'
// default.
func NewSerialExecutor() Executor { return &serialExecutor{BatchedExecutor{workers: 1}} }

// Name implements Executor.
func (*serialExecutor) Name() string { return EngineSerial }
