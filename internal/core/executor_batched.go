package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

// BatchedExecutor runs the step phase as a gather→batch-forward→scatter
// stage: every interval it gathers all RA observations into one matrix per
// distinct policy, runs a single wide forward pass per policy group
// (rl.BatchActor), and scatters the action rows back to the environments.
// At hundreds of RAs this turns J×T tiny matmuls per period into T wide
// matmuls that hit the register-tiled kernel at full throughput and
// allocate nothing warm.
//
// The serial engine is this plan at one worker. Determinism: the result is
// bit-identical to an interleaved loop that acts and steps one RA after
// another (Act(env.State()) then Step, in RA order) for any worker count,
// by construction —
//
//   - gathering all states before stepping matches the interleaved order
//     because an RA's observation depends only on its own environment,
//     which has not stepped yet this interval;
//   - row i of a wide forward is bit-identical to the scalar Act on state i
//     (see nn.MatMulNTInto: batching and worker sharding never reorder or
//     split an output element's dot product);
//   - an RA's step reads and writes only its own environment and its own
//     slots of the period workspace, so which worker steps it cannot change
//     its result, and the merge that follows runs single-threaded in the
//     fixed (interval, RA, slice) order — History, monitor series, and
//     residuals come out the same.
//
// Workers shard both stages of an interval: the wide matmul (each shard
// forwards a contiguous row block out of its own workspace; weights are
// only read) and the environment stepping (workers pull chunks of consecutive
// RAs and step them into the per-RA result buffers, computing baseline
// actions themselves).
// Mixed systems split into batched groups plus a per-RA fallback: learning
// agents without a batched path act on the driver goroutine, one after
// another, because nothing says their Act is safe to call concurrently.
//
// A BatchedExecutor drives one run at a time: concurrent RunPeriods calls
// on one executor are not supported (the System is not concurrency-safe
// either).
type BatchedExecutor struct {
	workers int

	// Telemetry: wide forwards executed, the row count of the most recent
	// one, and the number of wide forwards in the most recent period.
	forwards  atomic.Uint64
	lastRows  atomic.Int64
	perPeriod atomic.Int64

	// Cached batch plan (policy groups, gather matrices, shard workspaces),
	// keyed on the system and its agent generation — period-at-a-time
	// driving must not regroup and reallocate every call. Accessed only
	// from RunPeriods, which is single-driver by contract.
	cacheSys  *System
	cacheGen  int
	cachePlan *batchPlan
}

// NewBatchedExecutor returns a batched engine; workers ≤ 0 defaults to
// GOMAXPROCS. Workers shard the wide forward passes and the environment
// stepping — results are identical for any worker count.
func NewBatchedExecutor(workers int) *BatchedExecutor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BatchedExecutor{workers: workers}
}

// Name implements Executor.
func (e *BatchedExecutor) Name() string { return EngineBatched }

// Workers returns the shard count bound of the forward and step stages.
func (e *BatchedExecutor) Workers() int { return e.workers }

// Close implements Executor; the batched engine holds no persistent
// resources (shard goroutines live for one forward or one step stage).
func (e *BatchedExecutor) Close() error { return nil }

// EnableTelemetry exports the engine's batching gauges through a telemetry
// registry.
func (e *BatchedExecutor) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("edgeslice_executor_batched_forwards_total",
		"wide batched forward passes executed", e.forwards.Load)
	reg.GaugeFunc("edgeslice_executor_batch_size",
		"rows (RAs) in the most recent wide forward pass", func() float64 { return float64(e.lastRows.Load()) })
	reg.GaugeFunc("edgeslice_executor_batches_per_period",
		"wide forward passes per period (policy groups × T)", func() float64 { return float64(e.perPeriod.Load()) })
}

// minShardRows is the smallest row block worth a shard goroutine: below
// this the spawn/synchronization overhead exceeds the matmul (or the
// environment steps) of the block.
const minShardRows = 64

// shardBounds splits n rows into contiguous equal blocks (the last may be
// short), one per shard: a single block unless there are at least
// 2*minShardRows rows and more than one worker, never more than workers
// blocks nor blocks shorter than minShardRows. Block s is [lo[s], lo[s+1]).
func shardBounds(n, workers int) (lo []int) {
	shards := 1
	if workers > 1 && n >= 2*minShardRows {
		shards = min(n/minShardRows, workers)
	}
	cs := (n + shards - 1) / shards
	lo = make([]int, shards+1)
	for si := range lo {
		lo[si] = min(si*cs, n)
	}
	return lo
}

// batchGroup is one distinct policy's slice of the system: the RAs it
// serves, their gather matrix, and the per-shard workspaces and result
// views of the wide forward.
type batchGroup struct {
	actor rl.BatchActor
	ras   []int // RA indices served by this policy, ascending

	states *nn.Matrix // len(ras) × stateDim gather buffer

	// Shard s forwards rows [lo[s], lo[s+1]) through its own workspace;
	// in[s] is a view into states and res[s] the workspace-backed result.
	lo  []int
	in  []nn.Matrix
	ws  []*nn.Workspace
	res []*nn.Matrix
	wg  sync.WaitGroup // the extra shards of one forward
}

// actRow returns the action row for group-relative row r of the last wide
// forward.
func (g *batchGroup) actRow(r int) []float64 {
	// Shards are equal-size blocks (except the last), so the shard index is
	// a division.
	cs := g.lo[1] - g.lo[0]
	s := r / cs
	return g.res[s].Row(r - g.lo[s])
}

// batchPlan is the cached gather/scatter layout for one (System, agent
// generation): which RAs batch under which policy group and which fall back
// to per-RA actions.
type batchPlan struct {
	groups  []*batchGroup
	groupOf []*batchGroup // RA j → its group, nil for fallback RAs
	rowOf   []int         // RA j → row within its group's gather matrix

	// The step stage: ras are the RAs the plan covers (ascending), stepped in
	// chunks of minShardRows consecutive entries that stepWorkers goroutines
	// (the shardBounds rule) pull off the counter next — a worker the host
	// deschedules mid-stage then costs one chunk, not its whole static share.
	// onDriver RAs (learning agents without a batched path) are stepped by the
	// driver goroutine itself. stepErr[c] is chunk c's first error.
	ras         []int
	stepWorkers int
	next        atomic.Int64
	wg          sync.WaitGroup // the extra step workers of one interval
	onDriver    []int
	stepErr     []error
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
// dynamic types group per (instance, state shape); everything else — plain
// baselines, unknown agents, agents whose type cannot be a map key — takes
// the per-RA fallback.
func (s *System) newBatchPlan(workers int) *batchPlan {
	return s.newBatchPlanFor(s.allRAs(), workers)
}

// newBatchPlanFor builds a batch plan covering only the given RAs
// (ascending) — the remote engine uses it to drive its in-process subset
// through the same grouped wide forwards the batched engine runs over the
// full system. groupOf/rowOf stay indexed by global RA id; RAs outside the
// set have no group and are never stepped.
func (s *System) newBatchPlanFor(ras []int, workers int) *batchPlan {
	J := s.cfg.NumRAs
	p := &batchPlan{groupOf: make([]*batchGroup, J), rowOf: make([]int, J), ras: ras}
	p.stepWorkers = len(shardBounds(len(ras), workers)) - 1
	p.stepErr = make([]error, (len(ras)+minShardRows-1)/minShardRows)
	if !s.cfg.Algo.IsLearning() {
		return p
	}
	byKey := make(map[batchKey]*batchGroup, 1)
	for _, j := range ras {
		ba := rl.AsBatchActor(s.agents[j])
		if ba == nil || !reflect.TypeOf(ba).Comparable() {
			p.onDriver = append(p.onDriver, j)
			continue
		}
		key := batchKey{actor: ba, dim: s.envs[j].StateDim()}
		g := byKey[key]
		if g == nil {
			g = &batchGroup{actor: ba}
			byKey[key] = g
			p.groups = append(p.groups, g)
		}
		p.groupOf[j] = g
		p.rowOf[j] = len(g.ras)
		g.ras = append(g.ras, j)
	}
	for _, g := range p.groups {
		dim := s.envs[g.ras[0]].StateDim()
		g.states = nn.NewMatrix(len(g.ras), dim)
		g.lo = shardBounds(len(g.ras), workers)
		shards := len(g.lo) - 1
		g.res = make([]*nn.Matrix, shards)
		g.in = make([]nn.Matrix, shards)
		g.ws = make([]*nn.Workspace, shards)
		for si := 0; si < shards; si++ {
			lo, hi := g.lo[si], g.lo[si+1]
			g.in[si] = nn.Matrix{Rows: hi - lo, Cols: dim, Data: g.states.Data[lo*dim : hi*dim]}
			g.ws[si] = new(nn.Workspace)
		}
	}
	return p
}

// step advances every RA the plan covers one interval into its slot of res
// (indexed by RA), after the groups' wide forwards of that interval. Chunks
// step concurrently — an RA's step touches only its own environment, its
// own workspace rows and its own result — while onDriver RAs step on the
// calling goroutine. The error reported is the first of the lowest failing
// chunk, else the driver's: deterministic for any scheduling.
//
// Only the extra workers' goroutines allocate: on one worker a warm interval
// allocates nothing.
func (p *batchPlan) step(s *System, ws *periodWS, interval int, res []netsim.StepResult) error {
	p.next.Store(0)
	for w := 1; w < p.stepWorkers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.pull(s, ws, interval, res)
		}()
	}
	p.pull(s, ws, interval, res)
	var driverErr error
	for _, j := range p.onDriver {
		if driverErr = s.stepInto(ws, j, interval, nil, &res[j]); driverErr != nil {
			break
		}
	}
	p.wg.Wait()
	for _, err := range p.stepErr {
		if err != nil {
			return err
		}
	}
	return driverErr
}

// pull steps chunks off the shared counter until none is left.
func (p *batchPlan) pull(s *System, ws *periodWS, interval int, res []netsim.StepResult) {
	for c := int(p.next.Add(1)) - 1; c < len(p.stepErr); c = int(p.next.Add(1)) - 1 {
		chunk := p.ras[c*minShardRows : min((c+1)*minShardRows, len(p.ras))]
		p.stepErr[c] = p.stepBlock(s, ws, interval, res, chunk)
	}
}

// stepBlock steps one chunk's RAs in ascending order: a grouped RA under its
// row of the wide forward, a baseline RA under the action it computes here.
// Learning agents without a group are the driver's (batchPlan.onDriver).
func (p *batchPlan) stepBlock(s *System, ws *periodWS, interval int, res []netsim.StepResult, ras []int) error {
	learning := s.cfg.Algo.IsLearning()
	for _, j := range ras {
		var act []float64
		if g := p.groupOf[j]; g != nil {
			act = g.actRow(p.rowOf[j])
		} else if learning {
			continue
		}
		if err := s.stepInto(ws, j, interval, act, &res[j]); err != nil {
			return err
		}
	}
	return nil
}

// forward runs the group's wide pass and updates the engine's telemetry.
func (e *BatchedExecutor) forward(s *System, g *batchGroup) {
	g.forward(s)
	e.forwards.Add(1)
	e.lastRows.Store(int64(g.states.Rows))
}

// forward gathers the group's states and runs the wide pass, sharded across
// workers when the group is large enough. Shard results are bit-identical
// to an unsharded pass: each output element's dot product is computed
// identically whichever row block it lands in.
func (g *batchGroup) forward(s *System) {
	dim := g.states.Cols
	for r, j := range g.ras {
		row := g.states.Data[r*dim : r*dim : (r+1)*dim]
		s.envs[j].StateInto(row)
	}
	g.wg.Add(len(g.res) - 1)
	for si := 1; si < len(g.res); si++ {
		go func() {
			defer g.wg.Done()
			g.forwardShard(si)
		}()
	}
	g.forwardShard(0)
	g.wg.Wait()
}

// forwardShard runs shard si's row block through its own workspace.
func (g *batchGroup) forwardShard(si int) {
	g.ws[si].Reset()
	g.res[si] = g.actor.ActBatch(&g.in[si], g.ws[si])
}

// RunPeriods implements Executor.
func (e *BatchedExecutor) RunPeriods(s *System, h *History, n int) error {
	if err := s.checkRunnable(n); err != nil {
		return err
	}
	T := s.cfg.EnvTemplate.T
	plan := e.planFor(s)
	ws := s.workspace()
	res := ws.results(1)[0]

	for p := 0; p < n; p++ {
		if err := s.distribute(s.allRAs()); err != nil {
			return err
		}
		for t := 0; t < T; t++ {
			interval := s.intervalsRun
			s.intervalsRun++
			// Gather all observations and run one wide forward per policy
			// group; no environment has stepped this interval yet, so the
			// gathered states equal what an interleaved act-then-step loop
			// would observe.
			for _, g := range plan.groups {
				e.forward(s, g)
			}
			// Scatter: step the RAs in worker blocks into their own result
			// buffers, then merge on this goroutine in RA order.
			if err := plan.step(s, ws, interval, res); err != nil {
				return err
			}
			if err := s.mergeInterval(h, interval, res); err != nil {
				return err
			}
		}
		if err := s.collectAndUpdate(h); err != nil {
			return err
		}
		e.perPeriod.Store(int64(len(plan.groups) * T))
	}
	return nil
}
