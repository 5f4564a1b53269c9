package core

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

// BatchedExecutor runs the step phase period-major in chunks of chunkRAs
// consecutive RAs: once per period, workers pull chunks off a shared
// counter, and for each chunk, interval after interval, gather the chunk's
// rows of every policy group, run one ActBatch per group on those rows
// (rl.BatchActor) and step the chunk's RAs into the period's T×J result
// grid. The driver then merges the T rows. Coordination is frozen for the
// whole period and an RA acts only on its own environment, so a chunk never
// waits on another: one fork/join per period, and a chunk's environments
// stay cache-resident across their T steps.
//
// The serial engine is this plan at one worker. Determinism: the result is
// bit-identical to an interleaved loop that acts and steps one RA after
// another (Act(env.State()) then Step, in RA order) for any worker count,
// by construction —
//
//   - an RA's observation and step depend only on its own environment, so
//     stepping a chunk through all T intervals before the next chunk starts
//     gives every RA the trajectory the interleaved loop gives it;
//   - row i of any forward block is bit-identical to the scalar Act on
//     state i (see nn.MatMulNTInto: batching never reorders or splits an
//     output element's dot product);
//   - an RA's step reads and writes only its own environment and its own
//     slots of the period workspace, so which worker steps it cannot change
//     its result, and the merge that follows runs single-threaded in the
//     fixed (interval, RA, slice) order — History and residuals come out
//     the same.
//
// Baseline RAs compute their own action in their chunk. Learning agents
// without a batched path act on the driver goroutine, one after another in
// (interval, RA) order while the workers run, because nothing says their
// Act is safe to call concurrently; the rl.BatchActor contract lets that one
// Act overlap the workers' ActBatch calls.
//
// A BatchedExecutor drives one run at a time: concurrent RunPeriods calls
// on one executor are not supported (the System is not concurrency-safe
// either).
type BatchedExecutor struct {
	workers int

	// Telemetry, stored by the driver once per period: chunk forwards
	// executed, the largest chunk block of the plan, and the chunk forwards
	// of the most recent period.
	forwards  atomic.Uint64
	blockRows atomic.Int64
	perPeriod atomic.Int64

	// Cached batch plan (chunk spans, worker workspaces), keyed on the
	// system and its agent generation — period-at-a-time driving must not
	// regroup and reallocate every call. Accessed only from RunPeriods,
	// which is single-driver by contract.
	cacheSys  *System
	cacheGen  int
	cachePlan *batchPlan
}

// NewBatchedExecutor returns a batched engine; workers ≤ 0 defaults to
// GOMAXPROCS. Workers step chunks of RAs through whole periods — results
// are identical for any worker count.
func NewBatchedExecutor(workers int) *BatchedExecutor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BatchedExecutor{workers: workers}
}

// Name implements Executor.
func (e *BatchedExecutor) Name() string { return EngineBatched }

// Workers returns the bound on the goroutines that step a period.
func (e *BatchedExecutor) Workers() int { return e.workers }

// Close implements Executor; the batched engine holds no persistent
// resources (step workers live for one period).
func (e *BatchedExecutor) Close() error { return nil }

// EnableTelemetry exports the engine's batching gauges through a telemetry
// registry.
func (e *BatchedExecutor) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("edgeslice_executor_batched_forwards_total",
		"chunk forward passes executed (one per policy group per chunk per interval)", e.forwards.Load)
	reg.GaugeFunc("edgeslice_executor_batch_size",
		"rows (RAs) in the largest chunk forward pass, at most 64", func() float64 { return float64(e.blockRows.Load()) })
	reg.GaugeFunc("edgeslice_executor_batches_per_period",
		"chunk forward passes per period (group spans over all chunks × T)", func() float64 { return float64(e.perPeriod.Load()) })
}

// chunkRAs is the number of consecutive RAs a worker pulls at once and steps
// through a whole period: 64 RAs' environments fit a core's L2, a
// spawn/synchronization costs less than their steps, and a shared group's
// 64-row forward is whole 8-row kernel tiles.
const chunkRAs = 64

// groupSpan is one policy group's RAs within one chunk, ascending: their
// observations gather into one forward block.
type groupSpan struct {
	actor rl.BatchActor
	dim   int // observation width
	ras   []int
}

// batchPlan is the cached chunk layout for one (System, agent generation):
// which RAs batch under which policy group in each chunk and which fall back
// to per-RA actions. The layout does not depend on the worker count.
type batchPlan struct {
	// spans[chunkSpans[c]:chunkSpans[c+1]] are chunk c's group spans.
	spans      []groupSpan
	chunkSpans []int
	// baselines: no learning agents, every RA computes its action in its
	// chunk. onDriver: learning agents without a batched path, stepped by
	// the driver goroutine itself.
	baselines bool
	onDriver  []int

	// forwards is the chunk forwards of one period; blockRows the largest
	// span.
	forwards, blockRows int

	// Worker w of workers (min(workers, chunks)) steps chunk w, then pulls
	// chunks off next, forwarding in nws[w] — a worker the host deschedules
	// mid-period then costs one chunk, not its whole static share.
	// chunkErr[c] is chunk c's first error.
	workers  int
	nws      []nn.Workspace
	next     atomic.Int64
	wg       sync.WaitGroup // the extra workers of one period
	chunkErr []error
}

// batchKey groups RAs by policy instance and observation width — two RAs
// batch together only when the same BatchActor serves both and their
// states share a shape.
type batchKey struct {
	actor rl.BatchActor
	dim   int
}

// planFor returns the batch plan for s, rebuilding it only when the system
// or its installed agents changed since the last call.
func (e *BatchedExecutor) planFor(s *System) *batchPlan {
	if e.cachePlan == nil || e.cacheSys != s || e.cacheGen != s.agentsGen {
		e.cacheSys = s
		e.cacheGen = s.agentsGen
		e.cachePlan = s.newBatchPlan(e.workers)
	}
	return e.cachePlan
}

// newBatchPlan classifies every RA: batch-capable agents with comparable
// dynamic types group per (instance, state shape) and each group's RAs
// split into per-chunk spans; everything else — plain baselines, unknown
// agents, agents whose type cannot be a map key — takes the per-RA
// fallback.
func (s *System) newBatchPlan(workers int) *batchPlan {
	J := s.cfg.NumRAs
	chunks := (J + chunkRAs - 1) / chunkRAs
	p := &batchPlan{
		chunkSpans: make([]int, chunks+1),
		baselines:  !s.cfg.Algo.IsLearning(),
		workers:    min(workers, chunks),
		chunkErr:   make([]error, chunks),
	}
	p.nws = make([]nn.Workspace, p.workers)
	if p.baselines {
		return p
	}
	var keys []batchKey
	var groups [][]int // RA ids of keys[g], ascending
	byKey := make(map[batchKey]int, 1)
	for j := 0; j < J; j++ {
		ba := rl.AsBatchActor(s.agents[j])
		if ba == nil || !reflect.TypeOf(ba).Comparable() {
			p.onDriver = append(p.onDriver, j)
			continue
		}
		key := batchKey{actor: ba, dim: s.envs[j].StateDim()}
		g, ok := byKey[key]
		if !ok {
			g = len(keys)
			byKey[key] = g
			keys = append(keys, key)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], j)
	}
	for c := 0; c < chunks; c++ {
		for g, ras := range groups {
			lo, hi := sort.SearchInts(ras, c*chunkRAs), sort.SearchInts(ras, (c+1)*chunkRAs)
			if lo < hi {
				p.spans = append(p.spans, groupSpan{actor: keys[g].actor, dim: keys[g].dim, ras: ras[lo:hi]})
				p.blockRows = max(p.blockRows, hi-lo)
			}
		}
		p.chunkSpans[c+1] = len(p.spans)
	}
	p.forwards = len(p.spans) * s.cfg.EnvTemplate.T
	return p
}

// stepPeriod steps every RA through the period's T intervals into the
// workspace's result grid, numbering the intervals from base. Chunks step
// concurrently — a chunk touches only its own environments, its worker's
// workspace and its own result columns — while the driver steps the
// onDriver RAs in (interval, RA) order. The error reported is the first of
// the lowest failing chunk, else the driver's: deterministic for any
// scheduling.
//
// Only the extra workers' goroutines allocate: on one worker a warm period
// allocates nothing.
func (p *batchPlan) stepPeriod(s *System, ws *periodWS, base int) error {
	p.next.Store(int64(p.workers))
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		go func() {
			defer p.wg.Done()
			p.pull(s, ws, w, base)
		}()
	}
	var driverErr error
steps:
	for t, row := range ws.res {
		for _, j := range p.onDriver {
			if driverErr = s.stepInto(ws, j, base+t, nil, &row[j]); driverErr != nil {
				break steps
			}
		}
	}
	p.pull(s, ws, 0, base)
	p.wg.Wait()
	for _, err := range p.chunkErr {
		if err != nil {
			return err
		}
	}
	return driverErr
}

// pull steps chunk w, then chunks off the shared counter, on worker w until
// none is left. Starting worker w on chunk w means its workspace sees that
// chunk's shapes every period, whatever the scheduling, so once warm it
// allocates nothing.
func (p *batchPlan) pull(s *System, ws *periodWS, w, base int) {
	for c := w; c < len(p.chunkErr); c = int(p.next.Add(1)) - 1 {
		p.chunkErr[c] = p.stepChunk(s, ws, &p.nws[w], c, base)
	}
}

// stepChunk steps chunk c's RAs through all T intervals: per interval, one
// forward per group span on the span's gathered observations, each grouped
// RA under its row, then — in a baseline system — every RA under the action
// it computes here. Learning agents without a group are the driver's.
//
//edgeslice:noalloc
func (p *batchPlan) stepChunk(s *System, ws *periodWS, nws *nn.Workspace, c, base int) error {
	spans := p.spans[p.chunkSpans[c]:p.chunkSpans[c+1]]
	lo, hi := c*chunkRAs, min((c+1)*chunkRAs, len(s.envs))
	for t, row := range ws.res {
		nws.Reset()
		for _, sp := range spans {
			in := nws.Next(len(sp.ras), sp.dim)
			for r, j := range sp.ras {
				s.envs[j].StateInto(in.Row(r)[:0:sp.dim])
			}
			acts := sp.actor.ActBatch(in, nws)
			for r, j := range sp.ras {
				if err := s.stepInto(ws, j, base+t, acts.Row(r), &row[j]); err != nil {
					return err
				}
			}
		}
		if !p.baselines {
			continue
		}
		for j := lo; j < hi; j++ {
			if err := s.stepInto(ws, j, base+t, nil, &row[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunPeriods implements Executor. A period whose step fails leaves no
// record: the merge runs only after every RA stepped all T intervals.
func (e *BatchedExecutor) RunPeriods(s *System, h *History, n int) error {
	if err := s.checkRunnable(n); err != nil {
		return err
	}
	plan := e.planFor(s)
	ws := s.workspace()
	for p := 0; p < n; p++ {
		if err := s.distribute(); err != nil {
			return err
		}
		if err := plan.stepPeriod(s, ws, s.coord.Iterations()*len(ws.res)); err != nil {
			return err
		}
		if err := s.mergePeriod(h, ws.res); err != nil {
			return err
		}
		if err := s.collectAndUpdate(h); err != nil {
			return err
		}
		e.forwards.Add(uint64(plan.forwards))
		e.perPeriod.Store(int64(plan.forwards))
		e.blockRows.Store(int64(plan.blockRows))
	}
	return nil
}
