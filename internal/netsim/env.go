package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"

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

// resized returns s with length n, reusing its backing array when it is
// large enough.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// resize sets every per-slice field to length n, allocating only the ones
// whose capacity is short (a zero StepResult allocates all six, once).
func (r *StepResult) resize(n int) {
	r.Perf = resized(r.Perf, n)
	r.ServiceTimes = resized(r.ServiceTimes, n)
	r.QueueLens = resized(r.QueueLens, n)
	r.Served = resized(r.Served, n)
	r.Arrived = resized(r.Arrived, n)
	r.Effective = resized(r.Effective, n)
}

// RAEnv simulates one resource autonomy: |I| slice queues served by three
// resource domains. It implements rl.Env for agent training and exposes an
// orchestration-mode API (SetCoordination / StepInterval) for Algorithm 1.
type RAEnv struct {
	cfg     Config
	pcg     rand.PCG   // the environment's one stream, seeded from cfg.Seed
	rng     *rand.Rand // over pcg: coordination draws and the λ ≥ 30 normal branch
	perfFn  PerfFunc
	demands [][NumResources]float64

	// perfTab[l] is perfFn at queue length l = 0 … MaxQueue (queue metric
	// only), where the ingress drop keeps every backlog: no per-step math.Pow.
	perfTab  []float64
	arrivals []mathutil.Poisson // per slice: CDF table kept while the rate holds

	queues []SliceQueue
	z, y   []float64 // coordination per slice (this RA's column)

	// capScale scales every domain's capacity at runtime (1 = nominal).
	// Scenario events use it to model RA degradation and recovery without
	// rebuilding the environment.
	capScale float64

	interval   int // global interval counter
	periodStep int // interval within the current period
	epStep     int // interval within the current episode

	periodPerf []float64 // Σ_t U_i over the current period

	raw     [][NumResources]float64 // StepInto scratch: clamped raw shares
	stepRes StepResult              // Step's result buffer (rl.Env returns only the reward)
}

var _ rl.Env = (*RAEnv)(nil)

// New creates a simulated RA environment.
func New(cfg Config) (*RAEnv, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	I := cfg.NumSlices
	// z, y, periodPerf, the arrival tables and perfTab are carved from one
	// allocation.
	const L = mathutil.PoissonTableLen
	f := make([]float64, 3*I+I*L+cfg.MaxQueue+1)
	e := &RAEnv{
		cfg:        cfg,
		capScale:   1,
		queues:     make([]SliceQueue, I),
		z:          f[:I:I],
		y:          f[I : 2*I : 2*I],
		periodPerf: f[2*I : 3*I : 3*I],
		arrivals:   make([]mathutil.Poisson, I),
		demands:    make([][NumResources]float64, I),
		raw:        make([][NumResources]float64, I),
	}
	mathutil.SeedPCG(&e.pcg, cfg.Seed)
	e.rng = rand.New(&e.pcg)
	for i, a := range cfg.Apps {
		e.arrivals[i] = mathutil.NewPoisson(f[3*I+i*L : 3*I+(i+1)*L])
		e.demands[i] = a.Demand()
	}
	switch cfg.Perf {
	case PerfQueue:
		e.perfFn = QueuePerf(cfg.Alpha)
		e.perfTab = f[3*I+I*L:]
		for l := range e.perfTab {
			e.perfTab[l] = e.perfFn(float64(l), 0)
		}
	case PerfServiceTime:
		e.perfFn = ServiceTimePerf(cfg.ServiceTimeScale)
	}
	return e, nil
}

// Config returns the environment configuration.
func (e *RAEnv) Config() Config { return e.cfg }

// StateDim implements rl.Env (Eq. 13: queue state + coordinating info, or
// coordination only for the NT variant).
func (e *RAEnv) StateDim() int {
	if e.cfg.ObserveQueue {
		return 2 * e.cfg.NumSlices
	}
	return e.cfg.NumSlices
}

// ActionDim implements rl.Env (Eq. 14: one allocation fraction per slice
// per resource domain).
func (e *RAEnv) ActionDim() int { return e.cfg.NumSlices * NumResources }

// Reset implements rl.Env: clears queues, redraws coordination targets in
// training mode, and returns the initial state.
func (e *RAEnv) Reset() []float64 {
	for i := range e.queues {
		e.queues[i].Reset()
		e.periodPerf[i] = 0
	}
	e.periodStep = 0
	e.epStep = 0
	if e.cfg.TrainCoordRandom {
		e.randomizeCoordination()
	}
	return e.State()
}

// randomizeCoordination draws fresh per-slice coordination targets
// (Sec. VI-A: "we randomly generate z_ij − y_ij ... to train the agents
// under different coordinating information"). z is a per-period cumulative
// performance target in [−CoordSpan, 0]; y is drawn in
// [−CoordSpan/2, CoordSpan/2] so the observed z−y covers both the negative
// range (slack SLA) and the positive range produced by dual ascent when a
// slice is under-performing at deployment.
func (e *RAEnv) randomizeCoordination() {
	for i := range e.z {
		e.z[i] = -e.rng.Float64() * e.cfg.CoordSpan
		e.y[i] = (e.rng.Float64() - 0.5) * e.cfg.CoordSpan
	}
}

// SetCoordination installs the coordinator-provided (z, y) column for this
// RA (orchestration mode; Alg. 1 feeds back Z and Y each period).
func (e *RAEnv) SetCoordination(z, y []float64) error {
	if len(z) != e.cfg.NumSlices || len(y) != e.cfg.NumSlices {
		return fmt.Errorf("netsim: coordination length %d/%d, want %d", len(z), len(y), e.cfg.NumSlices)
	}
	copy(e.z, z)
	copy(e.y, y)
	return nil
}

// State returns the current observation (Eq. 13).
func (e *RAEnv) State() []float64 {
	return e.StateInto(make([]float64, 0, e.StateDim()))
}

// StateInto appends the observation (Eq. 13) to dst and returns it,
// allocating only when dst lacks capacity. The batched action path uses it
// to gather every RA's state into one matrix row without per-RA garbage;
// values are identical to State.
func (e *RAEnv) StateInto(dst []float64) []float64 {
	out := dst
	if e.cfg.ObserveQueue {
		for i := range e.queues {
			out = append(out, float64(e.queues[i].Len())/e.cfg.QueueNorm)
		}
	}
	for i := range e.z {
		// Clamp the observed coordinating information to the support of
		// the training distribution (z ∈ [−S, 0], y ∈ [−S/2, S/2] ⇒
		// z−y ∈ [−1.5S, 0.5S]): runaway dual variables at deployment must
		// not push the policy into out-of-distribution states.
		zy := mathutil.Clamp(e.z[i]-e.y[i], -1.5*e.cfg.CoordSpan, 0.5*e.cfg.CoordSpan)
		out = append(out, zy/e.cfg.CoordNorm)
	}
	return out
}

// Step implements rl.Env.
func (e *RAEnv) Step(action []float64) ([]float64, float64, bool) {
	if err := e.StepInto(action, &e.stepRes); err != nil {
		// The rl.Env interface has no error path; a malformed action is a
		// programming error, matching the panic policy of the nn package.
		panic(fmt.Sprintf("netsim: %v", err))
	}
	e.epStep++
	done := e.epStep >= e.cfg.EpisodePeriods*e.cfg.T
	return e.State(), e.stepRes.Reward, done
}

// StepInterval advances one time interval t: arrivals are drawn from the
// traffic sources, the action's resource shares determine each slice's
// end-to-end service rate (bottleneck across the three domains), queues
// drain, the performance function is evaluated, and the shaped reward of
// Eq. 15 is computed. The returned result is the caller's: it is freshly
// allocated and never touched by the environment again.
func (e *RAEnv) StepInterval(action []float64) (StepResult, error) {
	var res StepResult
	if err := e.StepInto(action, &res); err != nil {
		return StepResult{}, err
	}
	return res, nil
}

// StepInto is StepInterval writing into a result the caller owns and
// reuses: res's per-slice slices are resized in place, so a warm call
// allocates nothing. The environment keeps no reference to res. A
// rejected action (wrong length or NaN) returns its error before anything
// changes: neither the environment nor res is touched.
//
//edgeslice:noalloc
func (e *RAEnv) StepInto(action []float64, res *StepResult) error {
	if len(action) != e.ActionDim() {
		//edgeslice:allocok cold error path
		return fmt.Errorf("netsim: action length %d, want %d", len(action), e.ActionDim())
	}
	for _, a := range action {
		if math.IsNaN(a) {
			//edgeslice:allocok cold error path
			return fmt.Errorf("netsim: NaN action")
		}
	}
	I := e.cfg.NumSlices
	res.resize(I)

	// Raw per-slice shares and the capacity violation of constraint (3).
	raw := e.raw
	var violation float64
	for k := 0; k < NumResources; k++ {
		var sum float64
		for i := 0; i < I; i++ {
			x := mathutil.Clamp(action[i*NumResources+k], 0, 1)
			raw[i][k] = x
			sum += x
		}
		violation += mathutil.PosPart(sum - 1)
	}

	// Effective allocation: the resource managers cannot hand out more
	// than exists, so shares are scaled down proportionally per domain;
	// every slice then keeps its MinShare floor with the remaining
	// capacity split according to the (scaled) requests.
	eff := res.Effective
	floorTotal := float64(I) * e.cfg.MinShare
	for k := 0; k < NumResources; k++ {
		var sum float64
		for i := 0; i < I; i++ {
			sum += raw[i][k]
		}
		scale := 1.0
		if sum > 1 {
			scale = 1 / sum
		}
		for i := 0; i < I; i++ {
			eff[i][k] = e.cfg.MinShare + (1-floorTotal)*raw[i][k]*scale
		}
	}

	res.Violation = violation

	const maxServiceTime = 1e3
	for i := 0; i < I; i++ {
		// Arrivals for this interval.
		lambda := e.cfg.Sources[i].Rate(e.interval)
		n := e.arrivals[i].Draw(&e.pcg, e.rng, lambda)
		if over := e.queues[i].Len() + n - e.cfg.MaxQueue; over > 0 {
			n -= over // overload guard: excess tasks are dropped at ingress
		}
		e.queues[i].Arrive(n)
		res.Arrived[i] = n

		rate := e.serviceRate(i, eff[i])
		res.Served[i] = e.queues[i].Serve(rate)
		res.QueueLens[i] = e.queues[i].Len()
		if rate > 1/maxServiceTime {
			res.ServiceTimes[i] = 1 / rate
		} else {
			res.ServiceTimes[i] = maxServiceTime
		}

		if l := res.QueueLens[i]; l < len(e.perfTab) {
			res.Perf[i] = e.perfTab[l]
		} else {
			res.Perf[i] = e.perfFn(float64(l), res.ServiceTimes[i])
		}
		e.periodPerf[i] += res.Perf[i]
	}

	// Reward shaping (Eq. 15): per-interval ADMM objective with the
	// proximal pull toward (z+y)/T, minus the re-weighted capacity penalty.
	// Performance enters normalized by PerfNorm so the quadratic term stays
	// within a trainable range (the paper reports "extensive and empirical
	// tunings on the hyper-parameters"; this is ours).
	var reward float64
	for i := 0; i < I; i++ {
		u := res.Perf[i] / e.cfg.PerfNorm
		target := (e.z[i] + e.y[i]) / (float64(e.cfg.T) * e.cfg.PerfNorm)
		diff := u - target
		reward += u - e.cfg.Rho/2*diff*diff
	}
	reward -= e.cfg.Beta * violation
	reward *= e.cfg.RewardScale
	// Deep-overload rewards are clipped: the quadratic proximal term grows
	// as l^4 under the queue metric, which would destabilize Q targets.
	reward = mathutil.Clamp(reward, -e.cfg.RewardClip, e.cfg.RewardClip)
	res.Reward = reward

	e.interval++
	e.periodStep++
	if e.periodStep >= e.cfg.T {
		e.periodStep = 0
		if e.cfg.TrainCoordRandom {
			e.randomizeCoordination()
		}
	}
	return nil
}

// serviceRate computes slice i's end-to-end task service rate for an
// effective allocation: the bottleneck (minimum) across the three domains.
func (e *RAEnv) serviceRate(i int, eff [NumResources]float64) float64 {
	rate := math.Inf(1)
	for k := 0; k < NumResources; k++ {
		d := e.demands[i][k]
		if d <= 0 {
			continue
		}
		r := eff[k] * e.cfg.Capacity[k] * e.capScale / d
		if r < rate {
			rate = r
		}
	}
	if math.IsInf(rate, 1) {
		rate = 0
	}
	return rate
}

// SetCapacityScale scales every resource domain's capacity at runtime
// (1 = nominal, 0.3 = a degraded RA at 30%). Scenario events use it to
// model RA failure and recovery.
func (e *RAEnv) SetCapacityScale(scale float64) error {
	if !(scale >= 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("netsim: capacity scale %v must be non-negative and finite", scale)
	}
	e.capScale = scale
	return nil
}

// CapacityScale returns the current runtime capacity scale.
func (e *RAEnv) CapacityScale() float64 { return e.capScale }

// PeriodPerf returns Σ_t U_i accumulated in the current period and resets
// the accumulator; Algorithm 1 calls this at period boundaries to report
// slice performance to the coordinator.
func (e *RAEnv) PeriodPerf() []float64 {
	out := make([]float64, len(e.periodPerf))
	e.PeriodPerfInto(out)
	return out
}

// PeriodPerfInto is PeriodPerf writing into dst, which must hold at least
// one entry per slice.
//
//edgeslice:noalloc
func (e *RAEnv) PeriodPerfInto(dst []float64) {
	for i := range e.periodPerf {
		dst[i] = e.periodPerf[i]
		e.periodPerf[i] = 0
	}
}

// QueueLens returns current queue lengths (TARO's input).
func (e *RAEnv) QueueLens() []int {
	out := make([]int, len(e.queues))
	e.QueueLensInto(out)
	return out
}

// QueueLensInto is QueueLens writing into dst, which must hold at least one
// entry per slice.
//
//edgeslice:noalloc
func (e *RAEnv) QueueLensInto(dst []int) {
	for i := range e.queues {
		dst[i] = e.queues[i].Len()
	}
}

// Queue exposes a slice's queue for inspection in tests.
func (e *RAEnv) Queue(i int) *SliceQueue { return &e.queues[i] }

// Interval returns the global interval counter.
func (e *RAEnv) Interval() int { return e.interval }

// Demand returns the per-task demand vector of slice i.
func (e *RAEnv) Demand(i int) [NumResources]float64 { return e.demands[i] }
