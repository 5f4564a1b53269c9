// Package core implements the EdgeSlice orchestration runtime: the workflow
// of Algorithm 1 that couples the ADMM performance coordinator with one
// DRL orchestration agent per resource autonomy, plus agent training,
// baseline policies, and the history capture the evaluation figures are
// generated from.
package core

import (
	"fmt"

	"edgeslice/internal/admm"
	"edgeslice/internal/monitor"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
)

// PaperUmin is the paper's per-slice SLA (Eq. 2): the minimum Σ_t U a
// slice must reach in each period, the default of every slice's Umin.
const PaperUmin = -50

// Algorithm selects the orchestration policy under evaluation (Sec. VII-B).
type Algorithm int

// Supported algorithms.
const (
	// AlgoEdgeSlice is the full system: DDPG agents observing queue state
	// and coordinating information.
	AlgoEdgeSlice Algorithm = iota + 1
	// AlgoEdgeSliceNT is the ablation without traffic observation: the
	// agent state is the coordinating information only.
	AlgoEdgeSliceNT
	// AlgoTARO shares every resource proportionally to queue lengths.
	AlgoTARO
	// AlgoEqualShare splits every resource evenly (static provisioning).
	AlgoEqualShare
)

// String returns the paper's display name.
func (a Algorithm) String() string {
	switch a {
	case AlgoEdgeSlice:
		return "EdgeSlice"
	case AlgoEdgeSliceNT:
		return "EdgeSlice-NT"
	case AlgoTARO:
		return "TARO"
	case AlgoEqualShare:
		return "EqualShare"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// IsLearning reports whether the algorithm uses a trained agent.
func (a Algorithm) IsLearning() bool {
	return a == AlgoEdgeSlice || a == AlgoEdgeSliceNT
}

// ParseAlgorithm resolves the CLI/scenario spelling of an algorithm
// ("edgeslice", "edgeslice-nt", "taro", "equal"); the paper display names
// returned by String are accepted too.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "edgeslice", "EdgeSlice":
		return AlgoEdgeSlice, nil
	case "edgeslice-nt", "EdgeSlice-NT":
		return AlgoEdgeSliceNT, nil
	case "taro", "TARO":
		return AlgoTARO, nil
	case "equal", "EqualShare":
		return AlgoEqualShare, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q", name)
	}
}

// Config assembles a full EdgeSlice system.
type Config struct {
	NumRAs int
	// EnvTemplate configures every RA's environment; per-RA seeds are
	// derived from it. ObserveQueue is overridden from Algo.
	EnvTemplate netsim.Config
	// EnvPerRA optionally overrides the template per RA (e.g. per-area
	// traffic profiles); nil entries fall back to the template.
	EnvPerRA []*netsim.Config
	// TrainEnv optionally sets the environment Train trains the shared
	// agent in; nil means RA 0's (EnvPerRA[0], else EnvTemplate).
	// NewTrainingEnv overrides its ObserveQueue (from Algo),
	// TrainCoordRandom (on) and Seed (from Seed). Scenarios train on base
	// traffic and deploy against their event program, whose absolute run
	// intervals mean nothing inside training episodes; the trace-driven
	// figures train on a variable-rate source covering the trace's load
	// band and deploy the trace per RA.
	TrainEnv *netsim.Config

	Algo Algorithm

	// Umin is the per-slice SLA vector for the coordinator; defaults to
	// PaperUmin for every slice when nil.
	Umin []float64
	Rho  float64

	// TrainSteps is the number of environment steps each agent is trained
	// for: the paper trains 1e6 TensorFlow steps, CI-scale runs thousands.
	TrainSteps int
	// DDPG holds the agents' hyper-parameters. Train trains DDPG whatever
	// its Technique says.
	DDPG offpolicy.Config

	Seed int64
}

// DefaultConfig returns the prototype experiment system: 2 RAs, 2 slices,
// the Sec. VII-C environment, EdgeSlice algorithm, CI-scale training.
func DefaultConfig() Config {
	env := netsim.DefaultExperimentConfig()
	d := offpolicy.DefaultConfig(offpolicy.DDPG)
	// CI-scale network: an update of the paper's 2x128 at batch 512 takes
	// ≈16 ms on the AVX kernels (BenchmarkDDPGUpdate), ≈4.5 CPU-hours for
	// 1e6 steps; 2x32 at batch 64 learns the 6-dim task in seconds.
	d.Hidden = 32
	d.BatchSize = 64
	d.WarmupSteps = 300
	d.NoiseDecay = 0.9995
	return Config{
		NumRAs:      2,
		EnvTemplate: env,
		Algo:        AlgoEdgeSlice,
		Rho:         1.0,
		TrainSteps:  12000,
		DDPG:        d,
		Seed:        1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumRAs <= 0 {
		return fmt.Errorf("core: NumRAs %d must be positive", c.NumRAs)
	}
	if c.Algo < AlgoEdgeSlice || c.Algo > AlgoEqualShare {
		return fmt.Errorf("core: invalid algorithm %v", c.Algo)
	}
	if c.EnvPerRA != nil && len(c.EnvPerRA) != c.NumRAs {
		return fmt.Errorf("core: EnvPerRA has %d entries, want %d", len(c.EnvPerRA), c.NumRAs)
	}
	if c.Umin != nil && len(c.Umin) != c.EnvTemplate.NumSlices {
		return fmt.Errorf("core: Umin has %d entries, want %d", len(c.Umin), c.EnvTemplate.NumSlices)
	}
	if c.Algo.IsLearning() && c.TrainSteps <= 0 {
		return fmt.Errorf("core: learning algorithm needs TrainSteps > 0")
	}
	tpl := c.EnvTemplate
	tpl.ObserveQueue = true // normalized before validation; Algo decides
	return tpl.Validate()
}

// System is an assembled EdgeSlice deployment: per-RA environments and
// agents plus the central performance coordinator.
type System struct {
	cfg Config
	// chunks hold the RAs' environments, chunkLo[c] being chunk c's first
	// RA (chunkLo[len(chunks)] = NumRAs); envs[j] is RA j's view.
	chunks  []*netsim.Chunk
	chunkLo []int
	envs    []*netsim.RAEnv
	agents  []rl.Agent
	coord   *admm.Coordinator
	mon     *monitor.Monitor

	trained bool
	// agentsGen counts agent installations (Train/SetAgents): the cached
	// batch plan is keyed on it, so it never outlives an agent swap.
	agentsGen int

	// rec selects the recording mode (exact/streaming, on-disk log) and
	// stats holds the live run telemetry behind Health/EnableTelemetry.
	rec   RecordOptions
	stats runStats

	// liveness, when set (SetLiveness), lets Health report remote-agent
	// liveness alongside run progress.
	liveness func() (live, registered, expected int)

	// ws (the period workspace) is built on first use and only touched from
	// the single RunPeriods driver goroutine.
	ws *periodWS
}

// NewSystem builds the system (agents untrained; call Train before
// RunPeriods for learning algorithms).
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	umin := cfg.Umin
	if umin == nil {
		umin = make([]float64, cfg.EnvTemplate.NumSlices)
		for i := range umin {
			umin[i] = PaperUmin
		}
	}
	coord, err := admm.NewCoordinator(admm.Config{
		NumSlices:    cfg.EnvTemplate.NumSlices,
		NumRAs:       cfg.NumRAs,
		Rho:          cfg.Rho,
		UminPerSlice: umin,
	})
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, coord: coord, mon: monitor.New()}
	envCfgs := make([]netsim.Config, cfg.NumRAs)
	for j := range envCfgs {
		envCfg := &envCfgs[j]
		*envCfg = cfg.envFor(j)
		envCfg.ObserveQueue = cfg.Algo != AlgoEdgeSliceNT
		envCfg.TrainCoordRandom = false // orchestration mode
		envCfg.Seed = cfg.Seed + int64(j)*7919
	}
	if s.chunks, err = netsim.NewChunks(envCfgs, chunkRAs); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.chunkLo = make([]int, 1, len(s.chunks)+1)
	s.envs = make([]*netsim.RAEnv, 0, cfg.NumRAs)
	for _, ch := range s.chunks {
		for r := 0; r < ch.Len(); r++ {
			s.envs = append(s.envs, ch.Env(r))
		}
		s.chunkLo = append(s.chunkLo, len(s.envs))
	}
	return s, nil
}

// Coordinator exposes the ADMM coordinator (read-only use).
func (s *System) Coordinator() *admm.Coordinator { return s.coord }

// Monitor exposes the system monitor, which no engine writes; ROADMAP item
// 3(e) deletes it with the benchmark's layer replay, its last writer.
func (s *System) Monitor() *monitor.Monitor { return s.mon }

// Env returns RA j's environment.
func (s *System) Env(j int) *netsim.RAEnv { return s.envs[j] }

// NumRAs returns the number of resource autonomies.
func (s *System) NumRAs() int { return len(s.envs) }

// Train prepares the orchestration agents. For TARO/EqualShare it is a
// no-op. For EdgeSlice variants it trains one DDPG agent offline against
// the training environment (TrainEnv, else RA 0's) with randomized
// coordinating information (Sec. VI-A/VI-B) and deploys it to every RA.
func (s *System) Train() error {
	if !s.cfg.Algo.IsLearning() {
		s.trained = true
		return nil
	}
	in := s.cfg.trainingInputs()
	env, err := netsim.New(in.Env)
	if err != nil {
		return fmt.Errorf("core: training shared agent: %w", err)
	}
	agent, err := offpolicy.New(env.StateDim(), env.ActionDim(), in.DDPG)
	if err != nil {
		return fmt.Errorf("core: training shared agent: %w", err)
	}
	if err := agent.Train(env, in.Steps); err != nil {
		return fmt.Errorf("core: training shared agent: %w", err)
	}
	return s.SetAgents([]rl.Agent{agent})
}

// SetAgents installs pre-trained agents (e.g. loaded from disk); the slice
// must have one agent per RA or exactly one (shared), and every agent must
// be an rl.BatchActor, since the engines act only through ActBatch.
func (s *System) SetAgents(agents []rl.Agent) error {
	for j, a := range agents {
		if _, ok := a.(rl.BatchActor); !ok {
			return fmt.Errorf("core: agent %d is %T, which has no ActBatch", j, a)
		}
	}
	switch len(agents) {
	case s.cfg.NumRAs:
		s.agents = append([]rl.Agent(nil), agents...)
	case 1:
		s.agents = make([]rl.Agent, s.cfg.NumRAs)
		for j := range s.agents {
			s.agents[j] = agents[0]
		}
	default:
		return fmt.Errorf("core: got %d agents, want 1 or %d", len(agents), s.cfg.NumRAs)
	}
	s.agentsGen++
	s.trained = true
	return nil
}

// Actor returns RA j's trained actor network, or an error if the RA's
// agent is not a DDPG agent (baselines and loaded policies have no
// serializable actor, and a SAC actor's head is its Gaussian's mean and
// log-std, not an action).
func (s *System) Actor(j int) (*nn.Network, error) {
	if j < 0 || j >= len(s.agents) {
		return nil, fmt.Errorf("core: RA %d has no agent (trained: %v)", j, s.trained)
	}
	if dd, ok := s.agents[j].(*offpolicy.Agent); ok && dd.Technique() == offpolicy.DDPG {
		return dd.Actor(), nil
	}
	return nil, fmt.Errorf("core: RA %d agent (%T) is not a DDPG agent: save a full checkpoint (Snapshot/SaveCheckpoint) instead", j, s.agents[j])
}

// envFor returns RA j's environment: its EnvPerRA entry, else EnvTemplate.
func (c Config) envFor(j int) netsim.Config {
	if c.EnvPerRA != nil && c.EnvPerRA[j] != nil {
		return *c.EnvPerRA[j]
	}
	return c.EnvTemplate
}

// NewTrainingEnv builds the environment Train trains the shared agent in,
// for trainers of other techniques that must share its task.
func (c Config) NewTrainingEnv() (*netsim.RAEnv, error) { return netsim.New(c.trainingEnv()) }

// trainingEnv configures the environment Train trains the shared agent in:
// TrainEnv, else RA 0's, observing queues unless Algo is the NT ablation,
// with randomized coordinating information (Sec. VI-A) and its own seed.
func (c Config) trainingEnv() netsim.Config {
	env := c.envFor(0)
	if c.TrainEnv != nil {
		env = *c.TrainEnv
	}
	env.ObserveQueue = c.Algo != AlgoEdgeSliceNT
	env.TrainCoordRandom = true
	env.Seed = c.Seed + 104729
	return env
}

// RunPeriods executes Algorithm 1 for n periods under the serial engine:
// each period, every RA's agent orchestrates T intervals under the current
// coordinating information, the coordinator collects Σ_t U and updates
// (Z, Y), and the new coordination is fed back to the agents. It is
// shorthand for RunPeriodsWith(NewSerialExecutor(), n).
func (s *System) RunPeriods(n int) (*History, error) {
	return s.RunPeriodsWith(NewSerialExecutor(), n)
}

// RunPeriodsWith executes Algorithm 1 for n periods under the given
// execution engine (see Executor) into a new History of the recording mode
// SetRecording asks for. On error the History holds what was recorded
// before the failure.
func (s *System) RunPeriodsWith(e Executor, n int) (*History, error) {
	h := s.newRunHistory()
	return h, s.RunPeriodsInto(e, h, n)
}

// RunPeriodsInto executes Algorithm 1 for n periods under e, appending every
// record to h — a History the caller owns, exact or streaming, of the
// system's shape — so period-at-a-time driving records one continuous run
// with no stitching and no per-call History.
func (s *System) RunPeriodsInto(e Executor, h *History, n int) error {
	I, J, T := s.cfg.EnvTemplate.NumSlices, s.cfg.NumRAs, s.cfg.EnvTemplate.T
	if h.NumSlices != I || h.NumRAs != J || h.T != T {
		return fmt.Errorf("core: history shape %dx%dxT%d, system is %dx%dxT%d", h.NumSlices, h.NumRAs, h.T, I, J, T)
	}
	return e.RunPeriods(s, h, n)
}
