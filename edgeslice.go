// Package edgeslice is a pure-Go reproduction of "EdgeSlice: Slicing
// Wireless Edge Computing Network with Decentralized Deep Reinforcement
// Learning" (Liu, Han, Moges — ICDCS 2020): a decentralized resource
// orchestration system for dynamic end-to-end network slicing.
//
// The public API exposes seven layers:
//
//   - System assembly and Algorithm-1 orchestration (NewSystem, Config,
//     System.Train, System.RunPeriods) — the D-DRL loop coupling the ADMM
//     performance coordinator with per-RA DDPG orchestration agents.
//   - Execution engines (Executor, NewSerialExecutor, NewBatchedExecutor,
//     NewRemoteExecutor, System.RunPeriodsWith, System.RunPeriodsInto) —
//     interchangeable serial, batched, and distributed implementations of
//     Algorithm 1's per-period phases, bit-identical across engines and
//     worker counts.
//   - Environment construction (EnvConfig, AppProfile, sources) — the
//     simulated wireless edge computing network of Sec. VI-B.
//   - Distributed deployment (NewHub, DialAgent, RunAgent, and
//     NewRemoteExecutor on the coordinator side) — the RC interface over
//     TCP for running the coordinator and agents as separate processes.
//   - Experiments (Fig6 … Fig11, Options) — regenerate every evaluation
//     figure of the paper.
//   - Scenarios (ListScenarios, GetScenario, RunScenario) — declarative
//     workload scenarios (traffic programs with timed events) executed by a
//     parallel sharded replica runner, with an opt-in warm-start mode that
//     trains each algorithm once and clones the policy into every replica.
//   - Checkpoints (SaveCheckpoint, LoadCheckpoint, DeployCheckpoint,
//     SaveAgent, LoadAgent) — versioned full-fidelity persistence of
//     trained agents: networks, optimizer moments, and RNG cursor, for
//     bitwise-identical deployment.
//
// This package is not a root of edgeslice-lint's reach gate: an internal
// symbol that only a façade export uses, and that no command, example or
// benchmark runs, is reported dead.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package edgeslice

import (
	"io"
	"time"

	"edgeslice/internal/admm"
	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
	"edgeslice/internal/experiments"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
	"edgeslice/internal/scenario"
	"edgeslice/internal/telemetry"
	"edgeslice/internal/traffic"
)

// Core orchestration types.
type (
	// Config assembles a full EdgeSlice system (RAs, environment,
	// algorithm, training budget).
	Config = core.Config
	// System is an assembled deployment: per-RA environments and agents
	// plus the performance coordinator.
	System = core.System
	// History captures per-interval and per-period results of a run.
	History = core.History
	// Algorithm selects the orchestration policy.
	Algorithm = core.Algorithm
)

// Environment types (the simulated wireless edge computing network).
type (
	// EnvConfig configures one resource autonomy's environment.
	EnvConfig = netsim.Config
	// Env is a simulated resource autonomy; it implements the RL
	// environment interface and the orchestration-mode API.
	Env = netsim.RAEnv
	// AppProfile models a slice application's per-domain resource demand.
	AppProfile = netsim.AppProfile
	// TrafficSource yields per-interval expected arrival rates.
	TrafficSource = traffic.Source
	// Trace is a set of per-area diurnal traffic profiles.
	Trace = traffic.Trace
)

// Agent is a trained orchestration policy.
type Agent = rl.Agent

// Executor is an execution engine for Algorithm 1: the same three phases
// per period (distribute coordination, step T intervals in every RA,
// collect Σ_t U and run the ADMM update) behind interchangeable
// implementations — serial in-process stepping, batched cross-RA inference
// (64-RA chunks stepped through whole periods on the workers, one forward
// pass per policy group per chunk per interval, bit-identical to serial for
// any worker count), or remote agents over the RC network
// interface (recording the same History, SLA flags, and residuals as local
// runs).
type Executor = core.Executor

// Engine spellings for NewExecutor and the -engine CLI flags.
const (
	EngineSerial  = core.EngineSerial
	EngineBatched = core.EngineBatched
	EngineRemote  = core.EngineRemote
)

// Checkpoint types (versioned, full-fidelity agent persistence).
type (
	// Checkpoint is a full-fidelity snapshot of a trained system: per
	// agent the actor, critic(s), target networks, optimizer moments, and
	// RNG cursor, deployable for bitwise-identical acting.
	Checkpoint = ckpt.Checkpoint
	// CheckpointOptions configures what a snapshot captures (e.g. the
	// replay buffer, which deployment never reads).
	CheckpointOptions = ckpt.SnapshotOptions
	// Deployment is a checkpoint's acting policies (DeployCheckpoint),
	// shared read-only by every System.Deploy.
	Deployment = core.Deployment
	// CheckpointStore is a content-addressed on-disk checkpoint cache
	// keyed by (algorithm, config hash, seed, train steps).
	CheckpointStore = ckpt.Store
)

// Coordinator is the ADMM performance coordinator.
type Coordinator = admm.Coordinator

// Distributed-deployment types (RC interface over TCP).
type (
	// Hub is the coordinator-side network endpoint, internally sharded for
	// parallel broadcast and collection (NewShardedHub).
	Hub = rcnet.Hub
	// HubStats is a snapshot of the hub's lifetime counters, including
	// wire-level traffic.
	HubStats = rcnet.HubStats
	// AgentClient is the orchestration-agent-side endpoint.
	AgentClient = rcnet.AgentClient
	// AgentStats is a snapshot of an agent client's lifetime counters.
	AgentStats = rcnet.AgentStats
	// Codec selects the coordination plane's wire encoding: CodecJSON (the
	// compatibility default) or CodecBinary (length-prefixed packed frames).
	Codec = rcnet.Codec
)

// Wire codecs for the coordination plane.
const (
	CodecJSON   = rcnet.CodecJSON
	CodecBinary = rcnet.CodecBinary
)

// Scenario-engine types (declarative workloads and the parallel runner).
type (
	// Scenario is a declarative workload scenario: topology, slice mix,
	// traffic program with timed events, schedule, and algorithms.
	Scenario = scenario.Spec
	// ScenarioSlice declares one slice of a scenario.
	ScenarioSlice = scenario.SliceSpec
	// ScenarioTraffic declares a slice's base traffic source.
	ScenarioTraffic = scenario.TrafficSpec
	// ScenarioEvent is a timed entry of a scenario's traffic program.
	ScenarioEvent = scenario.Event
	// ScenarioOptions configures the parallel replica runner.
	ScenarioOptions = scenario.Options
	// ScenarioSummary aggregates a scenario run's replicas.
	ScenarioSummary = scenario.Summary
)

// Telemetry types (the streaming observability layer).
type (
	// TelemetryRegistry is a named metric collection with a Prometheus
	// text exposition; subsystems (System, Hub, AgentClient, the batched
	// executor) export their counters through one shared registry.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer serves /metrics, /healthz, and /debug/pprof.
	TelemetryServer = telemetry.Server
	// RecordOptions selects a System's recording mode: streaming
	// (bounded-memory) summaries and/or the append-only on-disk history
	// log.
	RecordOptions = core.RecordOptions
	// HistoryLog is the append-only CRC-checked on-disk record of a run,
	// replayable into a full exact History.
	HistoryLog = core.HistoryLog
	// SystemHealth is the /healthz payload: run progress, last residuals,
	// per-slice SLA state.
	SystemHealth = core.SystemHealth
)

// NewTelemetryRegistry creates an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// StartTelemetry serves the registry on addr: /metrics (Prometheus text),
// /healthz (JSON from health, or the registry snapshot when nil), and the
// pprof handlers under /debug/pprof/.
func StartTelemetry(addr string, reg *TelemetryRegistry, health func() any) (*TelemetryServer, error) {
	return telemetry.StartServer(addr, reg, health)
}

// NewStreamingHistory allocates a bounded-memory History: a ring of the
// last window interval records and period tails (SLA flags and residuals,
// not the per-RA grid), plus running sums and P² quantile sketches over the
// whole run, answering the same accessors as the exact mode in O(window)
// memory whatever the run length or RA count.
func NewStreamingHistory(numSlices, numRAs, t, window int) *History {
	return core.NewStreamingHistory(numSlices, numRAs, t, window)
}

// CreateHistoryLog creates (truncating) an on-disk history log for a run
// of the given shape.
func CreateHistoryLog(path string, numSlices, numRAs, t int) (*HistoryLog, error) {
	return core.CreateHistoryLog(path, numSlices, numRAs, t)
}

// ReplayHistoryLog reconstructs the exact History a history-log file
// records. truncated reports a partial tail (crashed writer): every
// complete record before it is recovered.
func ReplayHistoryLog(path string) (h *History, truncated bool, err error) {
	return core.ReplayHistoryLogFile(path)
}

// WriteHistoryReport writes a run's report: an exact History's per-period
// table, then the steady-state summary both modes share.
func WriteHistoryReport(w io.Writer, h *History) error { return core.WriteReport(w, h) }

// OpenHistoryLogAppend reopens a history log for a resumed run: it replays
// the longest whole-period prefix, cuts off the crashed tail, and returns
// a log that appends in place plus the prefix History (feed it to
// System.PrimeFromHistory).
func OpenHistoryLogAppend(path string) (*HistoryLog, *History, error) {
	return core.OpenHistoryLogAppend(path)
}

// Experiment types.
type (
	// ExperimentOptions scales the figure regeneration runs.
	ExperimentOptions = experiments.Options
	// Figure is a regenerated paper figure.
	Figure = experiments.Figure
	// Series is one line in a figure.
	Series = experiments.Series
)

// Orchestration algorithms (Sec. VII-B).
const (
	AlgoEdgeSlice   = core.AlgoEdgeSlice
	AlgoEdgeSliceNT = core.AlgoEdgeSliceNT
	AlgoTARO        = core.AlgoTARO
	AlgoEqualShare  = core.AlgoEqualShare
)

// Resource domain indices of the three technical domains.
const (
	ResRadio     = netsim.ResRadio
	ResTransport = netsim.ResTransport
	ResCompute   = netsim.ResCompute
	NumResources = netsim.NumResources
)

// NewSystem builds an EdgeSlice system from a configuration.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// ParseAlgorithm resolves the CLI/scenario spelling of an algorithm
// ("edgeslice", "edgeslice-nt", "taro", "equal").
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// DefaultConfig returns the prototype-experiment system of Sec. VII-C
// (2 slices, 2 RAs, video-analytics workloads) at CI training scale.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultEnvConfig returns the prototype-experiment environment.
func DefaultEnvConfig() EnvConfig { return netsim.DefaultExperimentConfig() }

// NewEnv creates a simulated resource-autonomy environment.
func NewEnv(cfg EnvConfig) (*Env, error) { return netsim.New(cfg) }

// SaveAgent serializes RA ra's trained agent as a single-agent checkpoint
// any supported training algorithm round-trips (format
// edgeslice-checkpoint-v2).
func SaveAgent(w io.Writer, sys *System, ra int) error {
	c, err := sys.AgentCheckpoint(ra, ckpt.SnapshotOptions{})
	if err != nil {
		return err
	}
	return ckpt.Write(w, c)
}

// LoadAgent deploys a policy saved with SaveAgent or edgeslice-train into
// an environment of the given state and action widths (Env.StateDim,
// Env.ActionDim): its acting network alone. A checkpoint of another shape is
// an error. The returned agent is safe for concurrent Act calls.
func LoadAgent(r io.Reader, stateDim, actionDim int) (Agent, error) {
	p, err := core.LoadAgent(r, stateDim, actionDim)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// SaveCheckpoint writes the system's trained agents (all RAs, or the one
// shared agent) as a full-fidelity v2 checkpoint.
func SaveCheckpoint(w io.Writer, sys *System, opts CheckpointOptions) error {
	return core.SaveCheckpoint(w, sys, opts)
}

// LoadCheckpoint parses a v2 checkpoint for DeployCheckpoint.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) { return ckpt.Read(r) }

// DeployCheckpoint builds the acting policy of each of c's agents, for
// System.Deploy in place of Train.
func DeployCheckpoint(c *Checkpoint) (*Deployment, error) { return core.DeployCheckpoint(c) }

// OpenCheckpointStore opens (creating if needed) an on-disk checkpoint
// cache, the backing of the scenario runner's warm-start mode.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return ckpt.OpenStore(dir) }

// NewExecutor resolves an in-process engine spelling: "serial" (or empty)
// or "batched" (workers ≤ 0 defaults to GOMAXPROCS). Run periods with
// System.RunPeriodsWith and Close the executor when done.
func NewExecutor(engine string, workers int) (Executor, error) {
	return core.NewExecutor(engine, workers)
}

// NewSerialExecutor returns the serial in-process engine
// (System.RunPeriods' default).
func NewSerialExecutor() Executor { return core.NewSerialExecutor() }

// NewBatchedExecutor returns the batched in-process engine: once per period
// its workers pull chunks of 64 consecutive RAs and step each chunk through
// all T intervals, one forward pass per policy group per chunk per
// interval, with results bit-identical to the serial engine for any worker
// count.
func NewBatchedExecutor(workers int) Executor { return core.NewBatchedExecutor(workers) }

// NewRemoteExecutor returns the distributed engine: the step phase runs in
// remote agent processes connected to the hub, and their per-interval
// reports are merged into the same History a local run records. Close
// shuts the hub down.
func NewRemoteExecutor(hub *Hub, timeout time.Duration) Executor {
	return core.NewRemoteExecutor(hub, timeout)
}

// RemoteOptions tunes the remote engine's fault handling (collect timeout,
// in-flight period retries against re-registered agents).
type RemoteOptions = core.RemoteOptions

// NewRemoteExecutorWithOptions returns the distributed engine with explicit
// fault-handling options.
func NewRemoteExecutorWithOptions(hub *Hub, opts RemoteOptions) Executor {
	return core.NewRemoteExecutorWithOptions(hub, opts)
}

// NewHub starts the coordinator-side RC endpoint on addr (single shard).
func NewHub(addr string, numSlices, numRAs int) (*Hub, error) {
	return rcnet.NewHub(addr, numSlices, numRAs)
}

// NewShardedHub starts the coordinator-side RC endpoint with the RA space
// split across shards, each broadcasting and collecting in parallel under
// its own lock. Runs are bit-identical for any shard count.
func NewShardedHub(addr string, numSlices, numRAs, shards int) (*Hub, error) {
	return rcnet.NewShardedHub(addr, numSlices, numRAs, shards)
}

// ParseCodec resolves a wire-codec CLI spelling ("json", "binary", or ""
// for the JSON default).
func ParseCodec(s string) (Codec, error) { return rcnet.ParseCodec(s) }

// DialAgent connects an orchestration agent to the hub with the JSON wire
// codec.
func DialAgent(addr string, ra int, timeout time.Duration) (*AgentClient, error) {
	return rcnet.DialAgent(addr, ra, timeout)
}

// DialAgentCodec connects an orchestration agent to the hub with an
// explicit wire codec; the hub answers the connection in the same codec.
func DialAgentCodec(addr string, ra int, timeout time.Duration, codec Codec) (*AgentClient, error) {
	return rcnet.DialAgentCodec(addr, ra, timeout, codec)
}

// RunAgent drives one RA from the agent side until shutdown.
func RunAgent(c *AgentClient, env *Env, agent Agent, timeout time.Duration) error {
	return rcnet.RunAgent(c, env, agent, timeout)
}

// SynthesizeTrace builds a Trento-like diurnal traffic trace with the given
// number of geographic areas (see DESIGN.md §5 for the substitution note).
func SynthesizeTrace(seed int64, numAreas int) (*Trace, error) {
	return traffic.SynthesizeTrentoLike(mathutil.NewRNG(seed), numAreas)
}

// ListScenarios returns the names of the built-in workload scenarios.
func ListScenarios() []string { return scenario.List() }

// GetScenario returns a built-in scenario by name.
func GetScenario(name string) (Scenario, error) { return scenario.Get(name) }

// DecodeScenario parses and validates a JSON scenario spec.
func DecodeScenario(r io.Reader) (Scenario, error) { return scenario.DecodeJSON(r) }

// RunScenario executes a scenario's replicas (seeds × algorithms) across a
// bounded worker pool and aggregates the results; the summary is identical
// for any parallelism setting.
func RunScenario(spec Scenario, opts ScenarioOptions) (*ScenarioSummary, error) {
	return scenario.Run(spec, opts)
}

// WriteScenarioSummary renders a scenario summary as an aligned text table.
func WriteScenarioSummary(w io.Writer, s *ScenarioSummary) error {
	return scenario.WriteSummary(w, s)
}

// DefaultExperimentOptions returns CI-scale experiment settings.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Fig6 regenerates the convergence figure (system and slice performance vs
// time interval).
func Fig6(o ExperimentOptions) (*Figure, *Figure, error) { return experiments.Fig6(o) }

// Fig7 regenerates the per-domain resource orchestration figures.
func Fig7(o ExperimentOptions) ([]*Figure, error) { return experiments.Fig7(o) }

// Fig8 regenerates the agent-performance CDF and the usage-ratio grids.
func Fig8(o ExperimentOptions) (*Figure, []*Figure, error) { return experiments.Fig8(o) }

// Fig9 regenerates the scalability figures (per-RA and per-slice).
func Fig9(o ExperimentOptions) (*Figure, *Figure, error) { return experiments.Fig9(o) }

// Fig10 regenerates the training-technique figures (steps sweep and the
// DDPG/SAC/PPO/TRPO/VPG comparison).
func Fig10(o ExperimentOptions) (*Figure, *Figure, error) { return experiments.Fig10(o) }

// Fig11 regenerates the compatibility figures (alpha sweep and the
// service-time-metric CDF).
func Fig11(o ExperimentOptions) (*Figure, *Figure, error) { return experiments.Fig11(o) }

// WriteFigureTable renders a figure as an aligned text table.
func WriteFigureTable(w io.Writer, fig *Figure) error { return experiments.WriteTable(w, fig) }
