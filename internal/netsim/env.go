package netsim

import (
	"fmt"
	"math"
	"slices"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/rl"
	"edgeslice/internal/traffic"
)

// Config parameterizes one resource autonomy's simulated environment.
type Config struct {
	NumSlices int
	Apps      []AppProfile     // one application profile per slice
	Sources   []traffic.Source // one traffic source per slice

	// Capacity is R_tot per resource domain, in demand units per interval
	// (a slice whose per-task demand is d and allocation fraction x serves
	// x·Capacity/d tasks per interval through that domain).
	Capacity [NumResources]float64

	Perf             PerfMode
	Alpha            float64 // exponent of U = −l^α (paper: 2)
	ServiceTimeScale float64 // scale of the service-time metric (Fig. 11b)

	Rho  float64 // ADMM proximal weight in the reward (paper: 1.0)
	Beta float64 // capacity-violation penalty weight (paper: 20)
	T    int     // intervals per period (paper: 10 experiment, 24 simulation)

	// MinShare is the guaranteed minimum effective share every slice keeps
	// in every domain (control-plane floor): real slicing systems never
	// starve a slice to exactly zero resources — the radio manager still
	// schedules control channels and the transport manager keeps flows
	// installed. It also keeps the service-rate gradient alive at the
	// action-space corners.
	MinShare float64

	// ObserveQueue selects the EdgeSlice state space (queue + coordination,
	// Eq. 13) when true, or the EdgeSlice-NT state space (coordination
	// only, Sec. VII-B) when false.
	ObserveQueue bool

	QueueNorm   float64 // state normalization for queue lengths
	CoordNorm   float64 // state normalization for coordinating information
	CoordSpan   float64 // training: z targets drawn uniformly from [−CoordSpan, 0]
	PerfNorm    float64 // performance normalization inside the reward's proximal term
	RewardScale float64 // global reward scaling for numerical stability
	RewardClip  float64 // post-scaling |reward| bound (overload protection)
	MaxQueue    int     // hard cap on queue length (overload guard)

	EpisodePeriods int // training episode length in periods

	// TrainCoordRandom redraws the coordinating information at every period
	// boundary, the offline training regime of Sec. VI-A ("we randomly
	// generate z_ij − y_ij ... to train the agents under different
	// coordinating information").
	TrainCoordRandom bool

	Seed int64
}

// DefaultExperimentConfig reproduces the prototype experiment setting of
// Sec. VII-C: 2 slices (traffic-heavy and compute-heavy video analytics),
// Poisson(10) arrivals, U = −l², ρ = 1, β = 20, T = 10 intervals.
func DefaultExperimentConfig() Config {
	return Config{
		NumSlices: 2,
		Apps:      []AppProfile{HeavyTrafficApp, HeavyComputeApp},
		Sources: []traffic.Source{
			traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 11},
			traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 23},
		},
		Capacity:         [NumResources]float64{16, 16, 64},
		Perf:             PerfQueue,
		Alpha:            2,
		ServiceTimeScale: 10,
		Rho:              1.0,
		Beta:             5,
		MinShare:         0.04,
		T:                10,
		ObserveQueue:     true,
		QueueNorm:        25,
		CoordNorm:        500,
		CoordSpan:        500,
		PerfNorm:         100,
		RewardScale:      1.0 / 10,
		RewardClip:       100,
		MaxQueue:         40,
		EpisodePeriods:   2,
		TrainCoordRandom: true,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumSlices <= 0 {
		return fmt.Errorf("netsim: NumSlices %d must be positive", c.NumSlices)
	}
	if len(c.Apps) != c.NumSlices || len(c.Sources) != c.NumSlices {
		return fmt.Errorf("netsim: need %d apps and sources, got %d and %d",
			c.NumSlices, len(c.Apps), len(c.Sources))
	}
	for i, a := range c.Apps {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("netsim: app %d: %w", i, err)
		}
	}
	for k, cap := range c.Capacity {
		if !(cap > 0) || math.IsInf(cap, 1) {
			return fmt.Errorf("netsim: capacity[%s] = %v must be positive and finite", ResourceNames[k], cap)
		}
	}
	if c.T <= 0 {
		return fmt.Errorf("netsim: T %d must be positive", c.T)
	}
	if c.Perf != PerfQueue && c.Perf != PerfServiceTime {
		return fmt.Errorf("netsim: invalid perf mode %v", c.Perf)
	}
	if c.QueueNorm <= 0 || c.CoordNorm <= 0 || c.RewardScale <= 0 || c.RewardClip <= 0 || c.PerfNorm <= 0 {
		return fmt.Errorf("netsim: normalization constants must be positive")
	}
	if c.MaxQueue <= 0 || c.EpisodePeriods <= 0 {
		return fmt.Errorf("netsim: MaxQueue and EpisodePeriods must be positive")
	}
	if c.MinShare < 0 || float64(c.NumSlices)*c.MinShare >= 1 {
		return fmt.Errorf("netsim: MinShare %v infeasible for %d slices", c.MinShare, c.NumSlices)
	}
	return nil
}

// StepResult reports the detailed outcome of one simulated interval.
type StepResult struct {
	Perf         []float64               // U_i^(t) per slice
	ServiceTimes []float64               // per-task end-to-end service time per slice
	QueueLens    []int                   // post-interval queue lengths
	Served       []int                   // tasks served this interval
	Arrived      []int                   // tasks arrived this interval
	Effective    [][NumResources]float64 // capacity-feasible allocation actually applied
	Violation    float64                 // Σ_k [Σ_i x_ik − 1]⁺ of the raw action
	Reward       float64                 // shaped reward (Eq. 15)
}

// resize sizes res for n slices: a result whose Perf already has n entries
// is kept, anything else gets every per-slice field carved from three fresh
// blocks.
func (r *StepResult) resize(n int) {
	if len(r.Perf) != n {
		f, k := make([]float64, 2*n), make([]int, 3*n)
		*r = StepResult{Perf: f[:n:n], ServiceTimes: f[n:], QueueLens: k[:n:n], Served: k[n : 2*n : 2*n], Arrived: k[2*n:],
			Effective: make([][NumResources]float64, n)}
	}
}

// RAEnv simulates one resource autonomy — |I| slice queues served by three
// resource domains — as a view of one RA of a Chunk, stepped alone by the
// chunk's kernel. It implements rl.Env for agent training and the
// orchestration API (SetCoordination / StepInterval) of Algorithm 1.
type RAEnv struct {
	c  *Chunk
	r  int
	ep *episode // built by the first Reset: orchestration views have none
}

// episode is rl.Env's state: the episode's interval, Step's result (rl.Env
// returns only the reward) and the returned states, in turn in obs[cur].
type episode struct {
	step, cur int
	res       StepResult
	obs       [2][]float64
}

var _ rl.Env = (*RAEnv)(nil)

// New creates a simulated RA environment: a view of a one-RA chunk.
func New(cfg Config) (*RAEnv, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newChunk([]Config{cfg}).Env(0), nil
}

// slots returns the bounds of the RA's elements in the chunk's columns.
func (e *RAEnv) slots() (lo, hi int) {
	return e.r * e.c.cfg.NumSlices, (e.r + 1) * e.c.cfg.NumSlices
}

// Config returns the environment configuration.
func (e *RAEnv) Config() Config {
	cfg := e.c.cfg
	cfg.Seed, cfg.Sources = e.c.ras[e.r].seed, e.c.sources[e.r]
	return cfg
}

// StateDim implements rl.Env (Eq. 13: queue state + coordinating info, or
// coordination only for the NT variant).
func (e *RAEnv) StateDim() int {
	if e.c.cfg.ObserveQueue {
		return 2 * e.c.cfg.NumSlices
	}
	return e.c.cfg.NumSlices
}

// ActionDim implements rl.Env (Eq. 14: one allocation fraction per slice
// per resource domain).
func (e *RAEnv) ActionDim() int { return e.c.cfg.NumSlices * NumResources }

// Reset implements rl.Env: clears queues, redraws coordination targets in
// training mode, and returns the initial state (see Step).
func (e *RAEnv) Reset() []float64 {
	lo, hi := e.slots()
	clear(e.c.Backlog[lo:hi])
	clear(e.c.carry[lo:hi])
	clear(e.c.PeriodPerf[lo:hi])
	if e.ep == nil {
		e.ep = new(episode)
	}
	e.c.ras[e.r].phase, e.ep.step = 0, 0
	if e.c.cfg.TrainCoordRandom {
		e.c.randomizeCoordination(e.r)
	}
	return e.observe()
}

// observe writes the state into the env-owned buffer not holding the last
// returned state, so that state stays valid through one more Reset or Step.
func (e *RAEnv) observe() []float64 {
	ep := e.ep
	ep.cur ^= 1
	ep.obs[ep.cur] = e.StateInto(ep.obs[ep.cur][:0])
	return ep.obs[ep.cur]
}

// SetCoordination installs the coordinator-provided (z, y) column for this
// RA (orchestration mode; Alg. 1 feeds back Z and Y each period).
func (e *RAEnv) SetCoordination(z, y []float64) error {
	lo, hi := e.slots()
	if len(z) != hi-lo || len(y) != hi-lo {
		return fmt.Errorf("netsim: coordination length %d/%d, want %d", len(z), len(y), hi-lo)
	}
	copy(e.c.Z[lo:hi], z)
	copy(e.c.Y[lo:hi], y)
	return nil
}

// State returns the current observation (Eq. 13).
func (e *RAEnv) State() []float64 {
	return e.StateInto(make([]float64, 0, e.StateDim()))
}

// StateInto appends the observation (Eq. 13) to dst and returns it,
// allocating only when dst lacks capacity: the batched action path gathers
// every RA's state into one matrix row with it.
func (e *RAEnv) StateInto(dst []float64) []float64 {
	c := e.c
	lo, hi := e.slots()
	if c.cfg.ObserveQueue {
		for _, l := range c.Backlog[lo:hi] {
			dst = append(dst, float64(l)/c.cfg.QueueNorm)
		}
	}
	for x := lo; x < hi; x++ {
		// Clamp the observed coordinating information to the support of
		// the training distribution (z ∈ [−S, 0], y ∈ [−S/2, S/2] ⇒
		// z−y ∈ [−1.5S, 0.5S]): runaway dual variables at deployment must
		// not push the policy into out-of-distribution states.
		zy := mathutil.Clamp(c.Z[x]-c.Y[x], -1.5*c.cfg.CoordSpan, 0.5*c.cfg.CoordSpan)
		dst = append(dst, zy/c.cfg.CoordNorm)
	}
	return dst
}

// Step implements rl.Env, after Reset: the returned state is one of two
// env-owned buffers used in alternation, so a warm call allocates nothing.
func (e *RAEnv) Step(action []float64) ([]float64, float64, bool) {
	ep := e.ep
	if err := e.StepInto(action, &ep.res); err != nil {
		// The rl.Env interface has no error path; a malformed action is a
		// programming error, matching the panic policy of the nn package.
		panic(fmt.Sprintf("netsim: %v", err))
	}
	ep.step++
	done := ep.step >= e.c.cfg.EpisodePeriods*e.c.cfg.T
	return e.observe(), ep.res.Reward, done
}

// StepInterval advances one time interval: arrivals are drawn from the
// traffic sources, the action's resource shares set each slice's
// end-to-end service rate (bottleneck across the three domains), queues
// drain, and performance and the shaped reward of Eq. 15 are computed. The
// returned result is freshly allocated and the caller's.
func (e *RAEnv) StepInterval(action []float64) (StepResult, error) {
	var res StepResult
	err := e.StepInto(action, &res)
	return res, err
}

// StepInto is StepInterval writing into a result the caller owns and
// reuses, so a warm call allocates nothing; the environment keeps no
// reference to res. A rejected action (wrong length or NaN) returns its
// error before the environment or res changes.
//
//edgeslice:noalloc
func (e *RAEnv) StepInto(action []float64, res *StepResult) error {
	if err := e.c.check(action); err != nil {
		return err
	}
	res.resize(e.c.cfg.NumSlices)
	e.c.step(e.r, action, nil, res.Perf, res.Effective, res)
	return nil
}

// SetCapacityScale scales every resource domain's capacity at runtime
// (1 = nominal, 0.3 = a degraded RA at 30%). Scenario events use it to
// model RA failure and recovery without rebuilding the environment.
func (e *RAEnv) SetCapacityScale(scale float64) error {
	if !(scale >= 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("netsim: capacity scale %v must be non-negative and finite", scale)
	}
	e.c.ras[e.r].capScale = scale
	return nil
}

// PeriodPerf returns Σ_t U_i accumulated in the current period and resets
// the accumulator; Algorithm 1 reports it to the coordinator at period
// boundaries.
func (e *RAEnv) PeriodPerf() []float64 {
	out := make([]float64, e.c.cfg.NumSlices)
	e.PeriodPerfInto(out)
	return out
}

// PeriodPerfInto is PeriodPerf writing into dst, which must hold at least
// one entry per slice.
//
//edgeslice:noalloc
func (e *RAEnv) PeriodPerfInto(dst []float64) {
	lo, hi := e.slots()
	copy(dst, e.c.PeriodPerf[lo:hi])
	clear(e.c.PeriodPerf[lo:hi])
}

// QueueLens returns current queue lengths (TARO's input).
func (e *RAEnv) QueueLens() []int {
	lo, hi := e.slots()
	return slices.Clone(e.c.Backlog[lo:hi])
}

// QueueLensInto is QueueLens writing into dst, which must hold at least one
// entry per slice.
//
//edgeslice:noalloc
func (e *RAEnv) QueueLensInto(dst []int) {
	lo, hi := e.slots()
	copy(dst, e.c.Backlog[lo:hi])
}
