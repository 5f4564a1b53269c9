package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

// BatchedExecutor runs the step phase period-major over the System's netsim
// chunks (at most chunkRAs consecutive RAs each): once per period, workers
// pull chunks off a shared counter and step each through all T intervals —
// per interval one ActBatch per policy group on the chunk's gathered rows
// (rl.BatchActor), or the baseline's actions computed in the chunk, then
// one Chunk.StepInto into the period grid. Between its own chunks the
// driver folds the finished prefix of chunks while the others still step.
// Coordination is frozen for the whole period and an RA acts only on its
// own environment, so a chunk never waits on another.
//
// The serial engine is this plan at one worker. For any worker count the
// result is bit-identical to acting and stepping one RA after another: an
// RA's step depends only on its own state, row i of a forward block is the
// scalar Act on state i (nn.MatMulNTInto never reorders a dot product), a
// chunk step gives each RA its solo step's bits, and only the driver
// folds, RAs ascending. A BatchedExecutor drives one run at a time.
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

// Name implements Executor: the plan at one worker is the serial engine.
func (e *BatchedExecutor) Name() string {
	if e.workers == 1 {
		return EngineSerial
	}
	return EngineBatched
}

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

// chunkRAs is the most RAs a netsim chunk, stepped through a whole period
// by one worker, holds: 64 RAs' columns fit a core's L2, a spawn costs less
// than their steps, and a 64-row forward is whole 8-row kernel tiles.
const chunkRAs = 64

// groupSpan is one policy group's RAs within one chunk, ascending: their
// observations gather into one forward block.
type groupSpan struct {
	batchKey
	ras []int
}

// batchPlan is the cached chunk layout for one (System, agent generation):
// which RAs batch under which policy group in each chunk. The layout does
// not depend on the worker count. It is the batched engine's periodStage.
type batchPlan struct {
	e   *BatchedExecutor // whose gauges recorded stores
	sys *System          // the system and agent generation planned for
	gen int

	// spans[chunkSpans[c]:chunkSpans[c+1]] are chunk c's group spans.
	spans      []groupSpan
	chunkSpans []int
	baselines  bool // no learning agents: RAs compute actions in their chunk

	forwards, blockRows int // chunk forwards of one period; largest span

	// Worker w of workers (min(workers, chunks)) steps chunk w, then pulls
	// chunks off next, forwarding in nws[w] — a worker the host deschedules
	// mid-period then costs one chunk, not its whole static share.
	workers  int
	nws      []nn.Workspace
	next     atomic.Int64
	wg       sync.WaitGroup // the extra workers of one period
	chunkErr []chunkResult
}

// chunkResult is a chunk's first error and done flag, stored in that order.
type chunkResult struct {
	err  error
	done atomic.Bool
}

// batchKey groups RAs by policy instance and observation width: two RAs
// batch together only under the same BatchActor and state shape.
type batchKey struct {
	actor rl.BatchActor
	dim   int // observation width
}

// planFor returns the batch plan for s, rebuilding it only when the system
// or its installed agents changed since the last call.
func (e *BatchedExecutor) planFor(s *System) *batchPlan {
	if p := e.cachePlan; p == nil || p.sys != s || p.gen != s.agentsGen {
		e.cachePlan = s.newBatchPlan(e, p)
	}
	return e.cachePlan
}

// newBatchPlan groups a learning system's RAs per (policy instance, state
// shape) and splits each group's RAs into per-chunk spans; a baseline
// system has no groups. It reuses old's storage, forward workspaces
// included, when old planned as many chunks on as many workers.
func (s *System) newBatchPlan(e *BatchedExecutor, old *batchPlan) *batchPlan {
	J, chunks := s.cfg.NumRAs, len(s.chunks)
	p := &batchPlan{e: e, sys: s, gen: s.agentsGen, baselines: !s.cfg.Algo.IsLearning(), workers: min(e.workers, chunks)}
	if old != nil && len(old.chunkErr) == chunks && len(old.nws) == p.workers {
		p.chunkSpans, p.chunkErr, p.nws, p.spans = old.chunkSpans, old.chunkErr, old.nws, old.spans[:0]
		clear(p.chunkSpans)
	} else {
		p.chunkSpans, p.chunkErr, p.nws = make([]int, chunks+1), make([]chunkResult, chunks), make([]nn.Workspace, p.workers)
	}
	if p.baselines {
		return p
	}
	var keys []batchKey
	var groups [][]int // RA ids of keys[g], ascending
	byKey := make(map[batchKey]int, 1)
	for j := 0; j < J; j++ {
		key := batchKey{actor: s.agents[j].(rl.BatchActor), dim: s.envs[j].StateDim()}
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
			lo, hi := sort.SearchInts(ras, s.chunkLo[c]), sort.SearchInts(ras, s.chunkLo[c+1])
			if lo < hi {
				p.spans = append(p.spans, groupSpan{keys[g], ras[lo:hi]})
				p.blockRows = max(p.blockRows, hi-lo)
			}
		}
		p.chunkSpans[c+1] = len(p.spans)
	}
	p.forwards = len(p.spans) * s.cfg.EnvTemplate.T
	return p
}

// step implements periodStage: every chunk steps its RAs through the
// period into the workspace and is folded. Chunks step concurrently — a
// chunk touches only its own columns, its worker's workspace and its RAs'
// elements of the period grid and ws.perf. The error reported is the first
// of the lowest failing chunk: deterministic for any scheduling. Only the
// extra workers' goroutines allocate.
func (p *batchPlan) step(s *System, ws *periodWS, period int) error {
	base := period * ws.T
	p.next.Store(int64(p.workers))
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		go func() {
			defer p.wg.Done()
			p.pull(s, ws, w, base)
		}()
	}
	p.pull(s, ws, 0, base)
	p.wg.Wait()
	p.foldDone(ws)
	for c := range p.chunkErr {
		if err := p.chunkErr[c].err; err != nil {
			return err
		}
	}
	return nil
}

// recorded implements periodStage: it stores the engine's batching gauges.
func (p *batchPlan) recorded(int) {
	p.e.forwards.Add(uint64(p.forwards))
	p.e.perPeriod.Store(int64(p.forwards))
	p.e.blockRows.Store(int64(p.blockRows))
}

// pull steps chunk w, then chunks off the shared counter, on worker w until
// none is left; the driver, worker 0, folds after each of its chunks.
// Starting worker w on chunk w means its workspace sees that chunk's shapes
// every period, whatever the scheduling, so once warm it allocates nothing.
func (p *batchPlan) pull(s *System, ws *periodWS, w, base int) {
	for c := w; c < len(p.chunkErr); c = int(p.next.Add(1)) - 1 {
		p.chunkErr[c].err = p.stepChunk(s, ws, &p.nws[w], c, base)
		p.chunkErr[c].done.Store(true)
		if w == 0 {
			p.foldDone(ws)
		}
	}
}

// foldDone folds the run of finished chunks after the folded ones, in
// chunk order, and clears their done flags for the next period.
func (p *batchPlan) foldDone(ws *periodWS) {
	c := sort.SearchInts(p.sys.chunkLo, ws.folded)
	for c < len(p.chunkErr) && p.chunkErr[c].done.Swap(false) {
		c++
	}
	ws.foldRAs(ws.folded, p.sys.chunkLo[c])
}

// stepChunk writes the coordinator's (Z, Y) columns into chunk c (phase 1
// of Alg. 1), steps it through all T intervals — per interval, each RA's
// action is its row of its group span's forward, or its baseline action,
// then one chunk step writes the period grid — and moves its Σ_t U columns
// into ws.perf, resetting them.
//
//edgeslice:noalloc
func (p *batchPlan) stepChunk(s *System, ws *periodWS, nws *nn.Workspace, c, base int) error {
	spans := p.spans[p.chunkSpans[c]:p.chunkSpans[c+1]]
	ch, lo, hi, I := s.chunks[c], s.chunkLo[c], s.chunkLo[c+1], ws.I
	for r := 0; r < ch.Len(); r++ {
		s.coord.ColumnInto(lo+r, ch.Z[r*I:(r+1)*I], ch.Y[r*I:(r+1)*I])
	}
	for t := 0; t < ws.T; t++ {
		nws.Reset()
		for _, sp := range spans {
			in := nws.Next(len(sp.ras), sp.dim)
			for r, j := range sp.ras {
				s.envs[j].StateInto(in.Row(r)[:0:sp.dim])
			}
			acts := sp.actor.ActBatch(in, nws)
			for r, j := range sp.ras {
				ws.rows[j] = acts.Row(r)
			}
		}
		if p.baselines {
			if err := s.baselineActions(ws, c); err != nil {
				return err
			}
		}
		perf, eff, viol := ws.interval(t)
		if r, err := ch.StepInto(ws.rows[lo:hi], perf[lo*I:hi*I], eff[lo*I:hi*I], viol[lo:hi]); err != nil {
			//edgeslice:allocok cold error path
			return fmt.Errorf("core: RA %d interval %d: %w", lo+r, base+t, err)
		}
	}
	for r := 0; r < ch.Len(); r++ {
		for i, v := range ch.PeriodPerf[r*I : (r+1)*I] {
			ws.perf[i][lo+r] = v
		}
	}
	clear(ch.PeriodPerf)
	return nil
}

// RunPeriods implements Executor. A period whose step fails leaves no
// record: intervals commit only after every RA stepped all T of them.
func (e *BatchedExecutor) RunPeriods(s *System, h *History, n int) error {
	if err := s.checkRunnable(n); err != nil {
		return err
	}
	return s.runPeriods(h, n, e.planFor(s))
}
