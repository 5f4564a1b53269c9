package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
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
// The implementations differ only in where and how phase 2 executes:
// Batched runs one wide forward per policy group per interval and steps the
// RAs in chunks shared among its workers, Serial is that batch plan at one
// worker, Parallel gives each RA's whole period to a worker of a persistent
// pool, and Remote steps them in separate agent processes over the RC
// network interface. Every engine steps into the System's period workspace
// and records through the same fixed (interval, RA, slice) merge, so
// Serial, Parallel and Batched are bit-identical for any worker count;
// Remote is identical to Serial when the remote agents run the same
// environments and policies.
type Executor interface {
	// Name reports the engine spelling ("serial", "parallel", "batched",
	// "remote").
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
const (
	EngineSerial   = "serial"
	EngineParallel = "parallel"
	EngineBatched  = "batched"
	EngineRemote   = "remote"
)

// NewExecutor resolves an in-process engine spelling: "serial" (or empty),
// "parallel" (workers ≤ 0 defaults to GOMAXPROCS), and "batched" (one wide
// forward pass per policy group per interval; workers shard the matmul and
// the environment stepping).
// The remote engine needs a live hub and timeout; construct it with
// NewRemoteExecutor.
func NewExecutor(engine string, workers int) (Executor, error) {
	switch engine {
	case "", EngineSerial:
		return NewSerialExecutor(), nil
	case EngineParallel:
		return NewParallelExecutor(workers), nil
	case EngineBatched:
		return NewBatchedExecutor(workers), nil
	case EngineRemote:
		return nil, fmt.Errorf("core: the remote engine wraps a live hub; construct it with NewRemoteExecutor")
	default:
		return nil, fmt.Errorf("core: unknown engine %q (want %q, %q or %q)", engine, EngineSerial, EngineParallel, EngineBatched)
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

// distribute pushes the coordinator's (Z, Y) columns into the given RAs
// (phase 1 of Alg. 1: agents act under the coordinating information for
// all intervals in T).
func (s *System) distribute(ras []int) error {
	ws := s.workspace()
	for _, j := range ras {
		s.coord.ColumnInto(j, ws.col, ws.col2)
		if err := s.envs[j].SetCoordination(ws.col, ws.col2); err != nil {
			return err
		}
	}
	return nil
}

// allRAs returns 0 … J−1 (cached; callers must not modify it).
func (s *System) allRAs() []int {
	if s.raIdx == nil {
		s.raIdx = make([]int, s.cfg.NumRAs)
		for j := range s.raIdx {
			s.raIdx[j] = j
		}
	}
	return s.raIdx
}

// collectPerf moves Σ_t U per slice of the given local RAs into the
// workspace's performance grid, resetting the environments' accumulators.
func (s *System) collectPerf(ras []int) {
	ws := s.workspace()
	for _, j := range ras {
		s.envs[j].PeriodPerfInto(ws.col)
		for i, v := range ws.col {
			ws.perf[i][j] = v
		}
	}
}

// collectAndUpdate gathers Σ_t U per slice per RA from the local
// environments and finishes the period (phase 3).
func (s *System) collectAndUpdate(h *History) error {
	s.collectPerf(s.allRAs())
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

// ParallelExecutor steps all RAs concurrently on a persistent worker pool.
// Within a period, RA trajectories are mutually independent — each agent
// observes only its own environment under coordination that is fixed for
// the whole period — so one worker advances one RA through all T intervals
// without cross-RA barriers. Per-RA interval records are buffered and
// merged in deterministic RA order afterwards, making the output
// bit-identical to the serial engine for any worker count.
//
// Policy inference is race-free: batch-capable agents (every built-in
// trainer and LoadAgent's policies) run lock-free single-row batched
// forwards out of per-RA workspaces — weights are only read — and agent
// implementations without a batched path are serialized behind a
// per-instance mutex (see concurrentActionFns). All supported policies are
// deterministic forward passes, so wrapping never changes an action.
//
// A ParallelExecutor is intended to drive one run at a time; concurrent
// RunPeriods calls on the same executor are not supported (the underlying
// System is not concurrency-safe either). Close releases the pool.
type ParallelExecutor struct {
	workers int

	// busy tracks workers currently executing a job (pool occupancy) and
	// steps counts RA-period step jobs completed — both exported through
	// EnableTelemetry.
	busy  atomic.Int64
	steps atomic.Uint64

	mu     sync.Mutex
	jobs   chan func()
	closed bool

	// Cached action closures (and their per-RA inference workspaces), keyed
	// on the system and its agent generation: period-at-a-time driving (the
	// scenario runner calls RunPeriods(1) per period) must not rebuild them
	// every call. Accessed only from RunPeriods, which is single-driver by
	// contract.
	cacheSys  *System
	cacheGen  int
	cacheActs []func() ([]float64, error)
}

// NewParallelExecutor returns a parallel engine with the given worker-pool
// size; workers ≤ 0 defaults to GOMAXPROCS. Workers are started lazily on
// the first RunPeriods call and live until Close.
func NewParallelExecutor(workers int) *ParallelExecutor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelExecutor{workers: workers}
}

// Name implements Executor.
func (e *ParallelExecutor) Name() string { return EngineParallel }

// Workers returns the pool size.
func (e *ParallelExecutor) Workers() int { return e.workers }

// Close implements Executor: it stops the worker pool. Safe to call more
// than once; RunPeriods after Close returns an error.
func (e *ParallelExecutor) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		if e.jobs != nil {
			close(e.jobs)
			e.jobs = nil
		}
	}
	return nil
}

// pool returns the job channel, starting the workers on first use.
func (e *ParallelExecutor) pool() (chan<- func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("core: parallel executor is closed")
	}
	if e.jobs == nil {
		e.jobs = make(chan func())
		for w := 0; w < e.workers; w++ {
			go func(jobs <-chan func()) {
				for job := range jobs {
					e.busy.Add(1)
					job()
					e.busy.Add(-1)
				}
			}(e.jobs)
		}
	}
	return e.jobs, nil
}

// EnableTelemetry exports the pool's occupancy and throughput counters
// through a telemetry registry.
func (e *ParallelExecutor) EnableTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("edgeslice_executor_workers",
		"parallel executor pool size", func() float64 { return float64(e.workers) })
	reg.GaugeFunc("edgeslice_executor_busy_workers",
		"workers currently stepping an RA", func() float64 { return float64(e.busy.Load()) })
	reg.CounterFunc("edgeslice_executor_ra_steps_total",
		"RA period-step jobs completed by the pool", e.steps.Load)
}

// RunPeriods implements Executor. When several RAs fail in the same
// period, the lowest-numbered RA's error is reported (deterministically,
// independent of worker scheduling).
func (e *ParallelExecutor) RunPeriods(s *System, h *History, n int) error {
	if err := s.checkRunnable(n); err != nil {
		return err
	}
	jobs, err := e.pool()
	if err != nil {
		return err
	}
	J := s.cfg.NumRAs
	T := s.cfg.EnvTemplate.T
	acts := e.actionFns(s)
	res := s.workspace().results(T) // [interval][RA]: worker j fills column j
	errs := make([]error, J)

	for p := 0; p < n; p++ {
		if err := s.distribute(s.allRAs()); err != nil {
			return err
		}
		base := s.intervalsRun
		var wg sync.WaitGroup
		for j := 0; j < J; j++ {
			j := j
			wg.Add(1)
			jobs <- func() {
				defer wg.Done()
				errs[j] = stepRA(s.envs[j], res, base, j, acts[j])
				e.steps.Add(1)
			}
		}
		wg.Wait()
		s.intervalsRun += T
		for j := 0; j < J; j++ {
			if errs[j] != nil {
				return errs[j]
			}
		}
		for t := range res {
			if err := s.mergeInterval(h, base+t, res[t]); err != nil {
				return err
			}
		}
		if err := s.collectAndUpdate(h); err != nil {
			return err
		}
	}
	return nil
}

// actionFns returns the per-RA action closures for s, rebuilding them only
// when the system or its installed agents changed since the last call.
func (e *ParallelExecutor) actionFns(s *System) []func() ([]float64, error) {
	if e.cacheActs == nil || e.cacheSys != s || e.cacheGen != s.agentsGen {
		e.cacheSys = s
		e.cacheGen = s.agentsGen
		e.cacheActs = s.concurrentActionFns()
	}
	return e.cacheActs
}

// stepRA advances one RA through the period's intervals (the worker-side
// body of phase 2) into column ra of res, one row per interval.
func stepRA(env *netsim.RAEnv, res [][]netsim.StepResult, base, ra int, act func() ([]float64, error)) error {
	for t := range res {
		a, err := act()
		if err != nil {
			return err
		}
		if err := env.StepInto(a, &res[t][ra]); err != nil {
			return fmt.Errorf("core: RA %d interval %d: %w", ra, base+t, err)
		}
	}
	return nil
}

// concurrentActionFns returns one action closure per RA, safe to call from
// concurrent per-RA workers. Baseline policies read only their own RA's
// environment and write only its workspace rows. Learning agents are wrapped
// for race-free inference: batch-capable agents (every built-in trainer, pooled and locked loaded
// policies) run a lock-free single-row ActBatch out of a per-RA workspace —
// weights are only read, scratch is private — so no clone pool and no
// serialization is needed, and rows are bit-identical to Act. Agents
// without a batched path fall back to scalar Act behind a per-instance
// mutex, so one slow or unknown agent serializes only the RAs that actually
// share that instance, not the whole system; agents whose dynamic type is
// not comparable (e.g. rl.AgentFunc) cannot be keyed by instance and share
// one mutex, since aliasing is undetectable for them.
func (s *System) concurrentActionFns() []func() ([]float64, error) {
	J := s.cfg.NumRAs
	out := make([]func() ([]float64, error), J)
	if !s.cfg.Algo.IsLearning() {
		ws := s.workspace()
		for j := 0; j < J; j++ {
			j := j
			out[j] = func() ([]float64, error) { return s.actionInto(ws, j) }
		}
		return out
	}
	fallbackMus := make(map[rl.Agent]*sync.Mutex, 1)
	var uncomparableMu sync.Mutex
	for j := 0; j < J; j++ {
		env := s.envs[j]
		agent := s.agents[j]
		if ba := rl.AsBatchActor(agent); ba != nil {
			var ws nn.Workspace
			dim := env.StateDim()
			out[j] = func() ([]float64, error) {
				ws.Reset()
				in := ws.Next(1, dim)
				in.Data = env.StateInto(in.Data[:0])
				return ba.ActBatch(in, &ws).Row(0), nil
			}
			continue
		}
		var mu *sync.Mutex
		if reflect.TypeOf(agent).Comparable() {
			if mu = fallbackMus[agent]; mu == nil {
				mu = new(sync.Mutex)
				fallbackMus[agent] = mu
			}
		} else {
			mu = &uncomparableMu
		}
		out[j] = func() ([]float64, error) {
			mu.Lock()
			defer mu.Unlock()
			return agent.Act(env.State()), nil
		}
	}
	return out
}
