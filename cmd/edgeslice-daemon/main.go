// Command edgeslice-daemon runs one EdgeSlice component as a network
// process, speaking the RC protocol over TCP: either the central
// performance coordinator (hub) or one decentralized orchestration agent.
// Start one coordinator and one agent per RA — on the same machine or
// across machines — to deploy Algorithm 1 in its genuinely distributed
// form.
//
// Usage:
//
//	edgeslice-daemon -role coordinator -listen :7000 -ras 2 -periods 10
//	edgeslice-daemon -role agent -connect host:7000 -ra 0 [-agent agent.json]
//
// Agents speak the compact length-prefixed binary codec (rcnet.DialAgent).
// The coordinator detects each connection's codec from its first byte, so
// a JSON client (rcnet.DialAgentCodec) still joins a run.
//
// Both roles accept -metrics-addr to serve live telemetry (/metrics in
// Prometheus text format, /healthz as JSON, and /debug/pprof) while the
// run progresses: the coordinator exports run progress, residuals,
// per-slice SLA state, hub connection/report counters, and agent liveness;
// the agent exports its report/coordination/heartbeat counters. The
// coordinator additionally accepts -history (append-only
// on-disk history log, replayable with edgeslice-exp -replay) and
// -stream-window (bounded-memory streaming history — prints a steady-state
// summary instead of the per-period table).
//
// The coordination plane is fault tolerant. -heartbeat on both roles turns
// on liveness: agents beacon at the given interval and the coordinator
// reaps connections silent for 4× that long, so a dead agent is detected
// without waiting for a broadcast write timeout. -retry-periods lets the
// coordinator retry an in-flight period's collection against the
// re-registered agent set (a reconnecting agent supersedes its stale
// connection and replays the completed periods from its resume frame), and
// -reconnect makes an agent redial after a lost connection. -resume
// restarts a crashed coordinator from its -history log: the completed
// periods are replayed into the ADMM state and the run continues in place,
// bit-identically to a run that never crashed.
//
// The coordinator runs the remote execution engine: it consumes the
// per-interval records agents attach to their reports and records the same
// History a local run produces — per-interval system/slice performance,
// usage, violations, per-period SLA flags, and primal/dual residuals. (The
// in-process engine is edgeslice-sim's: here every RA is its own process.)
// Both roles run the environment presets of core.DefaultConfig: two slices.
//
// The -agent file is a full-fidelity checkpoint written by edgeslice-train
// (format edgeslice-checkpoint-v3).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "edgeslice-daemon: %v\n", err)
		os.Exit(1)
	}
}

// coordOptions bundles the coordinator role's configuration.
type coordOptions struct {
	listen       string
	ras          int
	periods      int
	timeout      time.Duration
	metricsAddr  string
	streamWindow int
	historyPath  string
	heartbeat    time.Duration
	retryPeriods int
	resume       bool
}

func run() error {
	var (
		role      = flag.String("role", "", "coordinator or agent (required)")
		listen    = flag.String("listen", ":7000", "coordinator listen address")
		connect   = flag.String("connect", "127.0.0.1:7000", "agent: coordinator address")
		ras       = flag.Int("ras", 2, "coordinator: number of RAs")
		ra        = flag.Int("ra", 0, "agent: this RA's id")
		periods   = flag.Int("periods", 10, "coordinator: periods to run")
		agentFile = flag.String("agent", "", "agent: trained checkpoint JSON (from edgeslice-train); trains fresh if empty")
		train     = flag.Int("train", 12000, "agent: training steps when no -agent file given")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-round network timeout")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		streamWindow = flag.Int("stream-window", 0, "coordinator: bounded-memory streaming history with this ring window")
		historyPath  = flag.String("history", "", "coordinator: write the run's on-disk history log to this file")

		heartbeat    = flag.Duration("heartbeat", 0, "agent: send liveness heartbeats at this interval; coordinator: reap conns silent for 4x this long")
		retryPeriods = flag.Int("retry-periods", 0, "coordinator: extra collection attempts per period after a timeout, re-broadcast to missing RAs")
		reconnect    = flag.Int("reconnect", 0, "agent: redial attempts after a lost connection (re-registers and resumes mid-run)")
		resume       = flag.Bool("resume", false, "coordinator: resume a crashed run from the -history log instead of starting over")
	)
	flag.Parse()

	switch *role {
	case "coordinator":
		if *reconnect != 0 {
			return fmt.Errorf("-reconnect applies to the agent role")
		}
		return runCoordinator(coordOptions{
			listen: *listen, ras: *ras,
			periods: *periods, timeout: *timeout, metricsAddr: *metricsAddr,
			streamWindow: *streamWindow, historyPath: *historyPath,
			heartbeat: *heartbeat, retryPeriods: *retryPeriods, resume: *resume,
		})
	case "agent":
		if *streamWindow != 0 || *historyPath != "" {
			return fmt.Errorf("-stream-window and -history apply to the coordinator role; the agent keeps no history")
		}
		if *resume || *retryPeriods != 0 {
			return fmt.Errorf("-resume and -retry-periods apply to the coordinator role")
		}
		return runAgentLoop(*connect, *ra, *agentFile, *train, *seed, *timeout, *metricsAddr, *heartbeat, *reconnect)
	default:
		return fmt.Errorf("-role must be coordinator or agent")
	}
}

// runCoordinator drives the run through the remote execution engine:
// distributed agents report per-interval records and the coordinator
// records the same History a local run produces. With -resume it restarts
// from the history log: the completed periods are replayed into the ADMM
// state, re-registering agents receive the replay as their resume frame,
// and only the remaining periods run live.
func runCoordinator(o coordOptions) error {
	cfg := core.DefaultConfig()
	cfg.NumRAs = o.ras
	sys, err := core.NewSystem(cfg) // shape + coordinator only; envs and agents live remotely
	if err != nil {
		return err
	}
	rec := core.RecordOptions{StreamWindow: o.streamWindow}
	var prefix *core.History
	var zs, ys [][][]float64
	if o.resume {
		if o.historyPath == "" {
			return fmt.Errorf("-resume needs the -history log to resume from")
		}
		if o.streamWindow != 0 {
			return fmt.Errorf("-resume replays the exact on-disk log; it does not combine with -stream-window")
		}
		hlog, pre, err := core.OpenHistoryLogAppend(o.historyPath)
		if err != nil {
			return err
		}
		defer func() { _ = hlog.Close() }()
		if zs, ys, err = sys.PrimeFromHistory(pre); err != nil {
			return err
		}
		prefix = pre
		rec.Log = hlog
		fmt.Printf("resuming from %s: %d completed period(s) replayed\n", o.historyPath, pre.Periods())
	} else if o.historyPath != "" {
		hlog, err := core.CreateHistoryLog(o.historyPath, cfg.EnvTemplate.NumSlices, o.ras, cfg.EnvTemplate.T)
		if err != nil {
			return err
		}
		defer func() { _ = hlog.Close() }()
		rec.Log = hlog
	}
	sys.SetRecording(rec)
	hub, err := rcnet.NewHub(o.listen, cfg.EnvTemplate.NumSlices, o.ras)
	if err != nil {
		return err
	}
	if prefix != nil {
		// Prime before any agent can register, so every registration —
		// including the first — receives the full replay in its resume
		// frame.
		if err := hub.PrimeResume(prefix.Periods(), zs, ys); err != nil {
			_ = hub.Shutdown()
			return err
		}
	}
	if o.heartbeat > 0 {
		hub.SetLiveness(4 * o.heartbeat)
	}
	sys.SetLiveness(hub.Liveness)
	if o.metricsAddr != "" {
		reg := telemetry.NewRegistry()
		sys.EnableTelemetry(reg)
		hub.EnableTelemetry(reg)
		srv, err := telemetry.StartServer(o.metricsAddr, reg, func() any {
			return map[string]any{"system": sys.Health(), "hub": hub.Stats()}
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry on http://%s/metrics\n", srv.Addr())
	}
	exec := core.NewRemoteExecutorWithOptions(hub, core.RemoteOptions{
		Timeout: o.timeout, RetryPeriods: o.retryPeriods,
	})
	defer func() { _ = exec.Close() }()
	remaining := o.periods
	if prefix != nil {
		remaining -= prefix.Periods()
		if remaining <= 0 {
			fmt.Printf("history log already holds %d period(s); nothing to run\n", prefix.Periods())
			return printRunReport(prefix, exec)
		}
	}
	fmt.Printf("coordinator listening on %s, waiting for %d agents...\n", hub.Addr(), o.ras)
	if err := hub.WaitRegistered(o.timeout); err != nil {
		return err
	}
	// A resumed run records its continuation into the replayed prefix.
	h := prefix
	if h != nil {
		err = sys.RunPeriodsInto(exec, h, remaining)
	} else {
		h, err = sys.RunPeriodsWith(exec, remaining)
	}
	if err != nil {
		if h.Periods() > 0 {
			fmt.Printf("run failed after %d completed period(s): %v\n", h.Periods(), err)
		}
		return err
	}
	return printRunReport(h, exec)
}

// printRunReport prints the run's report and closes the executor.
func printRunReport(h *core.History, exec core.Executor) error {
	if err := core.WriteReport(os.Stdout, h); err != nil {
		return err
	}
	return exec.Close()
}

// loadPolicy resolves the agent's policy for env's state and action widths:
// a trained checkpoint from disk, or a freshly trained one. The policy
// object is independent of any connection, so reconnect attempts reuse it.
func loadPolicy(ra int, agentFile string, train int, seed int64, env *netsim.RAEnv) (rl.Agent, error) {
	if agentFile != "" {
		f, err := os.Open(agentFile)
		if err != nil {
			return nil, fmt.Errorf("open agent file: %w", err)
		}
		policy, err := core.LoadAgent(f, env.StateDim(), env.ActionDim())
		cerr := f.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		fmt.Printf("RA %d: loaded policy from %s\n", ra, agentFile)
		return policy, nil
	}
	fmt.Printf("RA %d: training fresh agent (%d steps)...\n", ra, train)
	cfg := core.DefaultConfig()
	cfg.NumRAs = 1
	cfg.TrainSteps = train
	cfg.Seed = seed + int64(ra)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Train(); err != nil {
		return nil, err
	}
	actor, err := sys.Actor(0)
	if err != nil {
		return nil, err
	}
	return rl.NewDeployedPolicy(actor, false), nil
}

// runAgentLoop runs the agent with up to reconnect redial attempts after a
// lost connection. Every (re)connection rebuilds the environment from its
// deterministic seed — RunAgent's resume replay then fast-forwards it to
// the run's current period — while the trained policy is loaded once and
// reused. The telemetry server outlives individual connections: its
// counters read whichever client is current (and reset across
// reconnections, the usual counter-restart semantics).
func runAgentLoop(connect string, ra int, agentFile string, train int, seed int64, timeout time.Duration, metricsAddr string, heartbeat time.Duration, reconnect int) error {
	if reconnect < 0 {
		return fmt.Errorf("-reconnect must be >= 0, got %d", reconnect)
	}
	env, err := agentEnv(ra, seed)
	if err != nil {
		return err
	}
	policy, err := loadPolicy(ra, agentFile, train, seed, env)
	if err != nil {
		return err
	}
	var cur atomic.Pointer[rcnet.AgentClient]
	if metricsAddr != "" {
		reg := telemetry.NewRegistry()
		stat := func(read func(rcnet.AgentStats) uint64) func() uint64 {
			return func() uint64 {
				if c := cur.Load(); c != nil {
					return read(c.Stats())
				}
				return 0
			}
		}
		reg.CounterFunc("edgeslice_agent_reports_sent_total",
			"perf reports sent to the hub",
			stat(func(s rcnet.AgentStats) uint64 { return s.ReportsSent }))
		reg.CounterFunc("edgeslice_agent_coordinations_received_total",
			"coordination messages received from the hub",
			stat(func(s rcnet.AgentStats) uint64 { return s.CoordsReceived }))
		reg.CounterFunc("edgeslice_agent_heartbeats_sent_total",
			"heartbeat frames sent to the hub",
			stat(func(s rcnet.AgentStats) uint64 { return s.HeartbeatsSent }))
		srv, err := telemetry.StartServer(metricsAddr, reg, func() any {
			payload := map[string]any{"ra": ra, "coordinator": connect}
			if c := cur.Load(); c != nil {
				payload["stats"] = c.Stats()
			}
			return payload
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("RA %d: telemetry on http://%s/metrics\n", ra, srv.Addr())
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			fmt.Printf("RA %d: connection lost (%v), redialing (attempt %d/%d)\n", ra, lastErr, attempt, reconnect)
		}
		done, err := runAgentOnce(connect, ra, policy, seed, timeout, heartbeat, &cur)
		if done {
			if err != nil {
				return err
			}
			fmt.Printf("RA %d: coordinator finished, shutting down\n", ra)
			return nil
		}
		lastErr = err
		if attempt >= reconnect {
			return lastErr
		}
	}
}

// agentEnv builds RA ra's environment from the daemon preset, reset.
func agentEnv(ra int, seed int64) (*netsim.RAEnv, error) {
	envCfg := netsim.DefaultExperimentConfig()
	envCfg.TrainCoordRandom = false
	envCfg.Seed = seed + int64(ra)*7919
	env, err := netsim.New(envCfg)
	if err != nil {
		return nil, err
	}
	env.Reset()
	return env, nil
}

// runAgentOnce is one connection's lifetime: fresh env, dial, register,
// serve until shutdown (done=true) or a connection error (done=false,
// worth redialing).
func runAgentOnce(connect string, ra int, policy rl.Agent, seed int64, timeout time.Duration, heartbeat time.Duration, cur *atomic.Pointer[rcnet.AgentClient]) (done bool, err error) {
	env, err := agentEnv(ra, seed)
	if err != nil {
		return true, err
	}

	client, err := rcnet.DialAgent(connect, ra, timeout)
	if err != nil {
		return false, err
	}
	cur.Store(client)
	defer func() { _ = client.Close() }()
	if heartbeat > 0 {
		stop := client.StartHeartbeat(heartbeat)
		defer stop()
	}
	fmt.Printf("RA %d: connected to %s\n", ra, connect)
	if err := rcnet.RunAgent(client, env, policy, timeout); err != nil {
		return false, err
	}
	return true, nil
}
