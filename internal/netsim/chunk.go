package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/traffic"
)

// Chunk simulates n resource autonomies whose Configs are equal but for
// Seed and Sources, as columns: element r·I+i of a per-slice column is RA
// r's slice i. Each RA keeps its own PCG stream, queues and Poisson tables,
// so a chunk step and a step of the RA's view (Env) give the same bits. A
// view stepped on its own goroutine writes only its RA's elements and
// tables; only the whole-chunk StepInto touches the shared λ and tables.
type Chunk struct {
	cfg     Config             // shared; Seed and Sources are per RA
	sources [][]traffic.Source // per RA
	perfFn  PerfFunc
	demands [][NumResources]float64 // per slice

	// perfTab[l] is perfFn at queue length l = 0 … MaxQueue (queue metric
	// only), where the ingress drop keeps every backlog: no per-step math.Pow.
	perfTab []float64

	// Backlog holds the queue lengths (TARO's input), Z and Y the
	// coordination installed between steps, PeriodPerf Σ_t U until read.
	Backlog    []int
	carry      []float64 // fractional service credit
	Z, Y       []float64
	PeriodPerf []float64
	arrivals   []mathutil.Poisson // per (RA, slice): CDF table kept while the rate holds
	ras        []raState
	views      []RAEnv
	shared     bool               // every RA reads the same Sources slice
	lam        []float64          // shared: per slice, λ of the interval being stepped
	tabs       []mathutil.Poisson // shared: per slice, the CDF table of lam
}

// raState is one RA's scalar state.
type raState struct {
	pcg             rand.PCG  // the RA's one stream, seeded from its Seed
	rng             rand.Rand // over pcg: coordination draws and the λ ≥ 30 normal branch
	seed            int64
	capScale        float64 // every domain's capacity scale (1 = nominal)
	interval, phase int     // global interval counter; interval within the period
}

// NewChunks validates cfgs, one per RA, and packs each run of consecutive
// RAs whose configs are equal but for Seed and Sources into chunks of at
// most max RAs. When reuse, an earlier call's chunks at max, holds as many
// RAs and each RA's config chunks with its chunk's, cfgs pack as reuse did:
// NewChunks resets reuse in place, which the caller must be done with, and
// returns it.
func NewChunks(cfgs []Config, max int, reuse ...*Chunk) ([]*Chunk, error) {
	for j := range cfgs {
		if err := cfgs[j].Validate(); err != nil {
			return nil, fmt.Errorf("RA %d env: %w", j, err)
		}
	}
	if packs(reuse, cfgs) {
		for _, c := range reuse {
			c.reset(cfgs[:c.Len()])
			cfgs = cfgs[c.Len():]
		}
		return reuse, nil
	}
	var chunks []*Chunk
	for lo, hi := 0, 1; lo < len(cfgs); lo, hi = hi, hi+1 {
		for hi < len(cfgs) && hi-lo < max && cfgs[lo].chunksWith(&cfgs[hi]) {
			hi++
		}
		chunks = append(chunks, newChunk(cfgs[lo:hi]))
	}
	return chunks, nil
}

// packs reports whether each of cfgs chunks with its chunk's config.
func packs(chunks []*Chunk, cfgs []Config) bool {
	for _, c := range chunks {
		if c.Len() > len(cfgs) {
			return false
		}
		for j := range c.Len() {
			if !c.cfg.chunksWith(&cfgs[j]) {
				return false
			}
		}
		cfgs = cfgs[c.Len():]
	}
	return len(chunks) > 0 && len(cfgs) == 0
}

// chunksWith reports whether c and o are equal in every field but Seed and
// Sources.
func (c *Config) chunksWith(o *Config) bool {
	return slices.Equal(c.Apps, o.Apps) && c.NumSlices == o.NumSlices && c.Capacity == o.Capacity && c.Perf == o.Perf &&
		c.Alpha == o.Alpha && c.ServiceTimeScale == o.ServiceTimeScale && c.Rho == o.Rho &&
		c.Beta == o.Beta && c.T == o.T && c.MinShare == o.MinShare && c.ObserveQueue == o.ObserveQueue &&
		c.QueueNorm == o.QueueNorm && c.CoordNorm == o.CoordNorm && c.CoordSpan == o.CoordSpan &&
		c.PerfNorm == o.PerfNorm && c.RewardScale == o.RewardScale && c.RewardClip == o.RewardClip &&
		c.MaxQueue == o.MaxQueue && c.EpisodePeriods == o.EpisodePeriods && c.TrainCoordRandom == o.TrainCoordRandom
}

// newChunk builds a chunk over valid cfgs that chunk with each other.
func newChunk(cfgs []Config) *Chunk {
	cfg, n := cfgs[0], len(cfgs)
	I := cfg.NumSlices
	// Floats, λ, every Poisson table and perfTab share one allocation.
	const L = mathutil.PoissonTableLen
	f := make([]float64, 4*n*I+I+(n+1)*I*L+cfg.MaxQueue+1)
	col := func(k int) []float64 { return f[k*n*I : (k+1)*n*I : (k+1)*n*I] }
	c := &Chunk{
		sources:    make([][]traffic.Source, n),
		demands:    make([][NumResources]float64, I),
		Backlog:    make([]int, n*I),
		carry:      col(0),
		Z:          col(1),
		Y:          col(2),
		PeriodPerf: col(3),
		lam:        f[4*n*I : 4*n*I+I],
		arrivals:   make([]mathutil.Poisson, (n+1)*I),
		ras:        make([]raState, n),
		views:      make([]RAEnv, n),
	}
	c.tabs = c.arrivals[n*I:]
	tables := f[4*n*I+I:]
	for x := range c.arrivals {
		c.arrivals[x] = mathutil.NewPoisson(tables[x*L:])
	}
	for i, a := range cfg.Apps {
		c.demands[i] = a.Demand()
	}
	switch cfg.Perf {
	case PerfQueue:
		c.perfFn = QueuePerf(cfg.Alpha)
		c.perfTab = tables[(n+1)*I*L:]
		for l := range c.perfTab {
			c.perfTab[l] = c.perfFn(float64(l), 0)
		}
	case PerfServiceTime:
		c.perfFn = ServiceTimePerf(cfg.ServiceTimeScale)
	}
	c.reset(cfgs)
	return c
}

// reset starts the chunk as newChunk(cfgs) does, for cfgs that chunk with
// its own. The Poisson tables keep their (λ, CDF): a table is a pure
// function of λ, so a kept one draws what a rebuilt one would.
func (c *Chunk) reset(cfgs []Config) {
	c.cfg, c.shared = cfgs[0], true
	clear(c.Backlog)
	clear(c.carry)
	clear(c.Z)
	clear(c.Y)
	clear(c.PeriodPerf)
	clear(c.lam)
	for r := range cfgs {
		c.sources[r] = cfgs[r].Sources
		c.shared = c.shared && &cfgs[r].Sources[0] == &cfgs[0].Sources[0]
		st := &c.ras[r]
		*st = raState{seed: cfgs[r].Seed, capScale: 1}
		mathutil.SeedPCG(&st.pcg, st.seed)
		st.rng = *rand.New(&st.pcg)
		c.views[r] = RAEnv{c: c, r: r}
	}
}

// Len returns the number of RAs in the chunk.
func (c *Chunk) Len() int { return len(c.ras) }

// Env returns RA r's view: the rl.Env and orchestration API over its columns.
func (c *Chunk) Env(r int) *RAEnv { return &c.views[r] }

// check rejects a malformed action (wrong length or NaN).
//
//edgeslice:noalloc
func (c *Chunk) check(action []float64) error {
	if want := c.cfg.NumSlices * NumResources; len(action) != want {
		//edgeslice:allocok cold error path
		return fmt.Errorf("netsim: action length %d, want %d", len(action), want)
	}
	for _, a := range action {
		if math.IsNaN(a) {
			//edgeslice:allocok cold error path
			return fmt.Errorf("netsim: NaN action")
		}
	}
	return nil
}

// StepInto steps every RA r through one interval under acts[r], writing
// its per-slice performance to perf[r·I:], effective shares to eff[r·I:]
// and capacity violation to viol[r]; a rejected action returns its RA and
// error before any RA steps. When every RA reads the same Sources slice,
// the RAs at RA 0's interval draw from one λ and one CDF table per slice:
// Source.Rate is deterministic per interval and CDF entry k is a pure
// function of (λ, k), so each draws what its own table would give it.
//
//edgeslice:noalloc
func (c *Chunk) StepInto(acts [][]float64, perf []float64, eff [][NumResources]float64, viol []float64) (int, error) {
	for r, a := range acts {
		if err := c.check(a); err != nil {
			return r, err
		}
	}
	I, t := c.cfg.NumSlices, c.ras[0].interval
	if c.shared {
		for i, src := range c.cfg.Sources {
			c.lam[i] = src.Rate(t)
		}
	}
	for r, a := range acts {
		lam := c.lam
		if !c.shared || c.ras[r].interval != t {
			lam = nil
		}
		viol[r] = c.step(r, a, lam, perf[r*I:(r+1)*I], eff[r*I:(r+1)*I], nil)
	}
	return 0, nil
}

// step is the one step kernel: it advances RA r one interval under a
// checked action, writes its performance and effective shares and returns
// its violation, drawing arrivals from lam and the shared tables or, lam
// nil, its own. A non-nil res gets the rest of the StepResult too.
//
//edgeslice:noalloc
func (c *Chunk) step(r int, action, lam, perf []float64, eff [][NumResources]float64, res *StepResult) float64 {
	cfg, st := &c.cfg, &c.ras[r]
	I := cfg.NumSlices
	// Raw per-slice shares and the capacity violation of constraint (3),
	// then the effective allocation: the resource managers cannot hand out
	// more than exists, so shares are scaled down proportionally per
	// domain; every slice then keeps its MinShare floor with the remaining
	// capacity split according to the (scaled) requests.
	var violation float64
	floorTotal := float64(I) * cfg.MinShare
	for k := 0; k < NumResources; k++ {
		var sum float64
		for i := 0; i < I; i++ {
			x := mathutil.Clamp(action[i*NumResources+k], 0, 1)
			eff[i][k] = x
			sum += x
		}
		violation += mathutil.PosPart(sum - 1)
		scale := 1.0
		if sum > 1 {
			scale = 1 / sum
		}
		for i := 0; i < I; i++ {
			eff[i][k] = cfg.MinShare + (1-floorTotal)*eff[i][k]*scale
		}
	}

	for i := 0; i < I; i++ {
		x := r*I + i
		var n int
		if lam != nil {
			n = c.tabs[i].Draw(&st.pcg, &st.rng, lam[i])
		} else {
			n = c.arrivals[x].Draw(&st.pcg, &st.rng, c.sources[r][i].Rate(st.interval))
		}
		n = min(n, cfg.MaxQueue-c.Backlog[x]) // overload guard: excess tasks are dropped at ingress
		q := SliceQueue{n: c.Backlog[x], carry: c.carry[x]}
		q.Arrive(n)
		rate := c.serviceRate(st.capScale, i, eff[i])
		served := q.Serve(rate)
		l := q.Len()
		c.Backlog[x], c.carry[x] = l, q.carry
		if l < len(c.perfTab) {
			perf[i] = c.perfTab[l]
		} else {
			perf[i] = c.perfFn(float64(l), serviceTime(rate))
		}
		c.PeriodPerf[x] += perf[i]
		if res != nil {
			res.Arrived[i], res.Served[i], res.QueueLens[i], res.ServiceTimes[i] = n, served, l, serviceTime(rate)
		}
	}
	if res != nil {
		res.Violation, res.Reward = violation, c.reward(r, perf, violation)
	}

	st.interval++
	if st.phase++; st.phase == cfg.T {
		st.phase = 0
		if cfg.TrainCoordRandom {
			c.randomizeCoordination(r)
		}
	}
	return violation
}

// serviceTime is the per-task end-to-end service time at a service rate,
// capped for a starved slice.
func serviceTime(rate float64) float64 {
	const maxServiceTime = 1e3
	if rate > 1/maxServiceTime {
		return 1 / rate
	}
	return maxServiceTime
}

// reward is RA r's shaped reward (Eq. 15): the per-interval ADMM objective
// with the proximal pull toward (z+y)/T, minus the re-weighted capacity
// penalty, with performance normalized by PerfNorm to keep the quadratic
// term trainable (our tuning; the paper's is unreported).
func (c *Chunk) reward(r int, perf []float64, violation float64) float64 {
	cfg := &c.cfg
	var reward float64
	for i, p := range perf {
		u := p / cfg.PerfNorm
		x := r*cfg.NumSlices + i
		target := (c.Z[x] + c.Y[x]) / (float64(cfg.T) * cfg.PerfNorm)
		diff := u - target
		reward += u - cfg.Rho/2*diff*diff
	}
	reward -= cfg.Beta * violation
	reward *= cfg.RewardScale
	// Deep-overload rewards are clipped: the quadratic proximal term grows
	// as l^4 under the queue metric, which would destabilize Q targets.
	return mathutil.Clamp(reward, -cfg.RewardClip, cfg.RewardClip)
}

// serviceRate is slice i's end-to-end task service rate under an effective
// allocation and capacity scale: the bottleneck across the three domains.
func (c *Chunk) serviceRate(capScale float64, i int, eff [NumResources]float64) float64 {
	rate := math.Inf(1)
	for k := 0; k < NumResources; k++ {
		d := c.demands[i][k]
		if d <= 0 {
			continue
		}
		r := eff[k] * c.cfg.Capacity[k] * capScale / d
		if r < rate {
			rate = r
		}
	}
	if math.IsInf(rate, 1) {
		rate = 0
	}
	return rate
}

// randomizeCoordination draws RA r's coordination targets for training
// (Sec. VI-A: "we randomly generate z_ij − y_ij ..."): z ∈ [−CoordSpan, 0]
// per period, y ∈ [−CoordSpan/2, CoordSpan/2], so z−y covers both slack
// SLAs and the positive range dual ascent reaches at deployment.
func (c *Chunk) randomizeCoordination(r int) {
	rng := &c.ras[r].rng
	for x := r * c.cfg.NumSlices; x < (r+1)*c.cfg.NumSlices; x++ {
		c.Z[x] = -rng.Float64() * c.cfg.CoordSpan
		c.Y[x] = (rng.Float64() - 0.5) * c.cfg.CoordSpan
	}
}
