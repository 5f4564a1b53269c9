package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
	"edgeslice/internal/telemetry"
	"edgeslice/internal/traffic"
)

// execTestConfig returns a 3-RA configuration for executor tests.
func execTestConfig(algo Algorithm) Config {
	cfg := DefaultConfig()
	cfg.Algo = algo
	cfg.NumRAs = 3
	return cfg
}

// deployedSystem builds a system ready to run without training: learning
// algorithms get a fixed, deterministic actor network installed via
// SetAgents (the deployment path), baselines need nothing.
func deployedSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algo.IsLearning() {
		if err := s.SetAgents([]rl.Agent{deployedPolicy(s.Env(0))}); err != nil {
			t.Fatal(err)
		}
	} else if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	return s
}

// deployedPolicy returns deployedSystem's fixed policy for env's shape, a
// new instance every call: it acts on the whole State(), the coordination
// (Z, Y) included.
func deployedPolicy(env *netsim.RAEnv) *rl.DeployedPolicy {
	return seededPolicy(env, 7)
}

// seededPolicy is a deployed actor for env's shape drawn from seed.
func seededPolicy(env *netsim.RAEnv, seed int64) *rl.DeployedPolicy {
	actor := nn.NewMLP(rand.New(rand.NewSource(seed)), env.StateDim(),
		nn.LayerSpec{Out: 16, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: env.ActionDim(), Act: nn.ActSigmoid},
	)
	return rl.NewDeployedPolicy(actor, false)
}

// trainerAgent builds one freshly-initialized agent of the named training
// algorithm: identical arguments always yield bitwise-identical actors.
func trainerAgent(t *testing.T, name string, env *netsim.RAEnv) rl.Agent {
	t.Helper()
	var (
		a   rl.Agent
		err error
	)
	if name == offpolicy.DDPG || name == offpolicy.SAC {
		cfg := offpolicy.DefaultConfig(name)
		cfg.Hidden = 16
		a, err = offpolicy.New(env.StateDim(), env.ActionDim(), cfg)
	} else {
		cfg := onpolicy.DefaultConfig(name)
		cfg.Hidden = 16
		a, err = onpolicy.New(env.StateDim(), env.ActionDim(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// taroAgent is the TARO baseline as an agent of env, for remote RAs: it
// reads env's queues into scratch it owns, so a warm call allocates nothing.
func taroAgent(env *netsim.RAEnv) rl.Agent {
	queues, act := make([]int, env.Config().NumSlices), make([]float64, env.ActionDim())
	return rl.AgentFunc(func([]float64) []float64 {
		env.QueueLensInto(queues)
		if err := baseline.TAROInto(act, queues); err != nil {
			panic(err)
		}
		return act
	})
}

// requireSameRun requires two runs' Histories to be deeply equal. A History
// carries each RA's per-period perf, which is monotone in queue length, so
// it also pins the queues every RA ran through.
func requireSameRun(t *testing.T, label string, hWant, hGot *History) {
	t.Helper()
	if !reflect.DeepEqual(hWant, hGot) {
		t.Errorf("%s: history differs from the reference run", label)
	}
}

// agentEnv builds RA j's environment as NewSystem does, for an agent
// process that steps it on its own.
func agentEnv(t *testing.T, cfg Config, j int) *netsim.RAEnv {
	t.Helper()
	envCfg := cfg.envFor(j)
	envCfg.ObserveQueue = cfg.Algo != AlgoEdgeSliceNT
	envCfg.TrainCoordRandom = false
	envCfg.Seed = cfg.Seed + int64(j)*7919
	env, err := netsim.New(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// remoteRig is a loopback hub of cfg's shape and the agents that serve it:
// RA j's RunAgent loop steps a fresh agentEnv with policy(env, j). A test
// that runs its own loop for an RA sets that RA's done channel first.
type remoteRig struct {
	t       *testing.T
	cfg     Config
	hub     *rcnet.Hub
	policy  func(env *netsim.RAEnv, j int) rl.Agent
	clients []*rcnet.AgentClient
	dones   []chan error
}

func newRemoteRig(t *testing.T, cfg Config, policy func(env *netsim.RAEnv, j int) rl.Agent) *remoteRig {
	t.Helper()
	hub, err := rcnet.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, cfg.NumRAs)
	if err != nil {
		t.Fatal(err)
	}
	return &remoteRig{t: t, cfg: cfg, hub: hub, policy: policy,
		clients: make([]*rcnet.AgentClient, cfg.NumRAs), dones: make([]chan error, cfg.NumRAs)}
}

// start dials RA j and runs its RunAgent loop: a fresh env replays the
// hub's resume frame, if any, then serves live periods.
func (r *remoteRig) start(j int) {
	r.t.Helper()
	env := agentEnv(r.t, r.cfg, j)
	pol := r.policy(env, j)
	client, err := rcnet.DialAgent(r.hub.Addr(), j, 5*time.Second)
	if err != nil {
		r.t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer client.Close()
		done <- rcnet.RunAgent(client, env, pol, 10*time.Second)
	}()
	r.clients[j], r.dones[j] = client, done
}

// kill closes RA j's connection and waits for its loop to fail.
func (r *remoteRig) kill(j int) {
	_ = r.clients[j].Close()
	if err := <-r.dones[j]; err == nil {
		r.t.Fatalf("killed agent %d's loop should exit with a read error", j)
	}
}

// executor starts every RA not started yet, waits until all J are
// registered and wraps the hub (Timeout defaults to 10 s).
func (r *remoteRig) executor(opts RemoteOptions) *RemoteExecutor {
	r.t.Helper()
	for j, done := range r.dones {
		if done == nil {
			r.start(j)
		}
	}
	if err := r.hub.WaitRegistered(5 * time.Second); err != nil {
		r.t.Fatal(err)
	}
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	return NewRemoteExecutorWithOptions(r.hub, opts)
}

// close shuts e down and requires every agent loop to end cleanly.
func (r *remoteRig) close(e Executor) {
	r.t.Helper()
	if err := e.Close(); err != nil {
		r.t.Fatal(err)
	}
	for j, done := range r.dones {
		if err := <-done; err != nil {
			r.t.Errorf("agent %d: %v", j, err)
		}
	}
}

// deployment is how a case's RAs act: the algorithm and agents(env, J),
// every RA's agent built for env's shape. RAs that share a policy share
// its instance within one call, and every call builds bitwise-equal
// agents. For a baseline they are the remote agents; local systems compute
// baselines themselves.
type deployment struct {
	name   string
	algo   Algorithm
	agents func(t *testing.T, env *netsim.RAEnv, J int) []rl.Agent
}

func sharedAgent(name string, algo Algorithm, agent func(t *testing.T, env *netsim.RAEnv) rl.Agent) deployment {
	return deployment{name, algo, func(t *testing.T, env *netsim.RAEnv, J int) []rl.Agent {
		return slices.Repeat([]rl.Agent{agent(t, env)}, J)
	}}
}

// deployments are every policy kind the engines run.
func deployments() []deployment {
	d := []deployment{
		sharedAgent("TARO", AlgoTARO, func(_ *testing.T, env *netsim.RAEnv) rl.Agent { return taroAgent(env) }),
		sharedAgent("EqualShare", AlgoEqualShare, func(_ *testing.T, env *netsim.RAEnv) rl.Agent {
			act := make([]float64, env.ActionDim())
			baseline.EqualShareInto(act, env.Config().NumSlices)
			return rl.AgentFunc(func([]float64) []float64 { return act })
		}),
		sharedAgent("deployed", AlgoEdgeSlice, func(_ *testing.T, env *netsim.RAEnv) rl.Agent { return deployedPolicy(env) }),
		sharedAgent("deployed-NT", AlgoEdgeSliceNT, func(_ *testing.T, env *netsim.RAEnv) rl.Agent { return deployedPolicy(env) }),
		{"two-groups", AlgoEdgeSlice, func(t *testing.T, env *netsim.RAEnv, J int) []rl.Agent {
			dd, sc := trainerAgent(t, offpolicy.DDPG, env), trainerAgent(t, offpolicy.SAC, env)
			agents := make([]rl.Agent, J)
			for j := range agents {
				agents[j] = []rl.Agent{dd, sc}[j%2]
			}
			return agents
		}},
	}
	for _, name := range []string{offpolicy.DDPG, offpolicy.SAC, onpolicy.PPO, onpolicy.TRPO, onpolicy.VPG} {
		d = append(d, sharedAgent(name, AlgoEdgeSlice, func(t *testing.T, env *netsim.RAEnv) rl.Agent { return trainerAgent(t, name, env) }))
	}
	return d
}

// engineCase is one shape every engine must run as the oracle does.
type engineCase struct {
	name               string
	I, J, T, periods   int
	perCall            bool // one period per RunPeriodsInto call, else one RunPeriodsWith
	window             int  // streaming window; 0 records exactly
	dep                deployment
	lambda             float64 // > 0: constant rates, λ + j on RA j's slices; 0: variable sources
	perRA, serviceTime bool    // sources per RA through EnvPerRA; U = −service time
	umin               float64 // every slice's SLA; 0 keeps PaperUmin
	ev                 *capEvent
}

// config builds the case's system configuration.
func (c engineCase) config() Config {
	cfg := DefaultConfig()
	cfg.Algo, cfg.NumRAs = c.dep.algo, c.J
	env := &cfg.EnvTemplate
	env.NumSlices, env.T = c.I, c.T
	env.Apps = []netsim.AppProfile{netsim.HeavyTrafficApp, netsim.HeavyComputeApp, netsim.HeavyTrafficApp}[:c.I]
	if c.serviceTime {
		env.Perf = netsim.PerfServiceTime
	}
	sources := func(j int) []traffic.Source {
		src := make([]traffic.Source, c.I)
		for i := range src {
			src[i] = traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: int64(11 + 12*i + 100*j)}
			if c.lambda > 0 {
				src[i] = traffic.ConstantSource{Lambda: c.lambda + float64(j)}
			}
		}
		return src
	}
	env.Sources = sources(0)
	if c.perRA {
		cfg.EnvPerRA = make([]*netsim.Config, c.J)
		for j := range cfg.EnvPerRA {
			e := *env
			e.Sources = sources(j)
			cfg.EnvPerRA[j] = &e
		}
	}
	if c.umin != 0 {
		cfg.Umin = slices.Repeat([]float64{c.umin}, c.I)
	}
	return cfg
}

// engineCases is the table: corner cases, then shapes drawn from a fixed
// seed, small so that a failure is easy to read.
func engineCases() []engineCase {
	deps := deployments()
	dep := func(name string) deployment {
		for _, d := range deps {
			if d.name == name {
				return d
			}
		}
		panic(name)
	}
	const wide = 2*chunkRAs + 3 // three chunks, the last of three RAs
	cases := []engineCase{
		{name: "TARO-wide", I: 2, J: wide, T: 4, periods: 2, window: 16, dep: dep("TARO")},
		{name: "two-groups-wide", I: 2, J: wide, T: 3, periods: 2, perCall: true, dep: dep("two-groups")},
		{name: "deployed-wide", I: 2, J: wide, T: 3, periods: 2, dep: dep("deployed")},
		{name: "TARO", I: 2, J: 3, T: 10, periods: 3, dep: dep("TARO")},
		{name: "two-groups", I: 2, J: 4, T: 5, periods: 3, dep: dep("two-groups")},
		{name: "deployed-light-load", I: 2, J: 3, T: 10, periods: 4, perCall: true, dep: dep("deployed"), lambda: 7.5, umin: -2000},
		{name: "EdgeSlice", I: 2, J: 3, T: 10, periods: 4, dep: dep("deployed")},
		{name: "EqualShare-capacity-event", I: 2, J: 3, T: 5, periods: 3, perCall: true, window: 8, dep: dep("EqualShare"),
			ev: &capEvent{period: 1, ra: 1, scale: 0.3}},
		{name: "deployed-per-RA-heavy", I: 3, J: 4, T: 4, periods: 2, dep: dep("deployed"), lambda: 29, perRA: true},
	}
	for _, name := range []string{offpolicy.DDPG, offpolicy.SAC, onpolicy.PPO, onpolicy.TRPO, onpolicy.VPG} {
		cases = append(cases, engineCase{name: name, I: 2, J: 3, T: 5, periods: 3, dep: dep(name)})
	}
	rng := rand.New(rand.NewSource(59))
	for n := range 8 {
		c := engineCase{name: fmt.Sprint("draw", n), I: 1 + rng.Intn(3), J: 1 + rng.Intn(5), T: 1 + rng.Intn(6),
			periods: 1 + rng.Intn(4), perCall: rng.Intn(2) == 0, window: []int{0, 8}[rng.Intn(2)],
			dep: deps[rng.Intn(len(deps))], perRA: rng.Intn(2) == 0, serviceTime: rng.Intn(4) == 0,
			umin: []float64{0, -500, -5000}[rng.Intn(3)]}
		if rng.Intn(3) == 0 {
			c.lambda = 40 * rng.Float64()
		}
		if c.perCall && rng.Intn(3) == 0 {
			c.ev = &capEvent{period: rng.Intn(c.periods), ra: rng.Intn(c.J), scale: rng.Float64()}
		}
		cases = append(cases, c)
	}
	return cases
}

// engineCoverage names what the cases must keep covering.
var engineCoverage = []string{
	"J > 2·64 on ≥ 2 step workers, short last chunk", "two policy groups in one chunk",
	"TARO", "EqualShare", "deployed", "ddpg", "sac", "ppo", "trpo", "vpg",
	"shared sources", "per-RA sources", "λ ≥ 30", "capacity event", "remote", "z − y inside the clamp",
}

// run records c's periods on s under e — a nil e is System.RunPeriods —
// into a History of c's recording mode and a history log, applying c's
// capacity event before its period.
func (c engineCase) run(t *testing.T, s *System, e Executor) (*History, []byte) {
	t.Helper()
	var buf bytes.Buffer
	hlog, err := NewHistoryLog(telemetry.NewLogWriter(&buf), c.I, c.J, c.T)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRecording(RecordOptions{StreamWindow: c.window, Log: hlog})
	h := s.newRunHistory(c.periods)
	event := func(p int) {
		if c.ev != nil && c.ev.period == p {
			if err := s.Env(c.ev.ra).SetCapacityScale(c.ev.scale); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch {
	case c.perCall:
		if e == nil {
			e = NewSerialExecutor()
		}
		for p := range c.periods {
			event(p)
			err = s.RunPeriodsInto(e, h, 1)
			if err != nil {
				break
			}
		}
	case e == nil:
		event(0)
		h, err = s.RunPeriods(c.periods)
	default:
		event(0)
		h, err = s.RunPeriodsWith(e, c.periods)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := hlog.Close(); err != nil {
		t.Fatal(err)
	}
	return h, buf.Bytes()
}

// engineLeg selects the engines a case runs on.
type engineLeg int

const (
	serialLeg  engineLeg = 1 << iota // System.RunPeriods and NewSerialExecutor
	batchedLeg                       // NewBatchedExecutor at 2, 4 and J workers
	remoteLeg                        // loopback hub, for J ≤ 5 without a capacity event
	allLegs    = serialLeg | batchedLeg | remoteLeg
)

// check runs c on legs and requires each engine to record the oracle's
// History and history-log bytes, noting in seen what c covered.
func (c engineCase) check(t *testing.T, legs engineLeg, seen map[string]bool) {
	t.Helper()
	cfg := c.config()
	if c.ev != nil && c.ev.period > 0 && !c.perCall {
		t.Fatal("a whole-run case can only scale capacity before its first period")
	}
	newSystem := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Algo.IsLearning() {
			err = s.Train()
		} else {
			err = s.SetAgents(c.dep.agents(t, s.Env(0), c.J))
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hWant := NewHistory(c.I, c.J, c.T)
	if c.window > 0 {
		hWant = NewStreamingHistory(c.I, c.J, c.T, c.window)
	}
	var logWant bytes.Buffer
	hlog, err := NewHistoryLog(telemetry.NewLogWriter(&logWant), c.I, c.J, c.T)
	if err != nil {
		t.Fatal(err)
	}
	o := oracleRun(t, cfg, c.dep.agents(t, agentEnv(t, cfg, 0), c.J), c.periods, c.ev, hWant, hlog)
	if err := hlog.Close(); err != nil {
		t.Fatal(err)
	}
	seen[c.dep.name] = true
	seen[map[bool]string{false: "shared sources", true: "per-RA sources"}[c.perRA]] = true
	seen["λ ≥ 30"] = seen["λ ≥ 30"] || o.maxLambda >= 30
	seen["capacity event"] = seen["capacity event"] || c.ev != nil
	seen["z − y inside the clamp"] = seen["z − y inside the clamp"] || o.zyInside
	run := func(name string, s *System, e Executor) {
		h, log := c.run(t, s, e)
		requireSameRun(t, name, hWant, h)
		if !bytes.Equal(log, logWant.Bytes()) {
			t.Errorf("%s: history log differs from the oracle's", name)
		}
	}
	if legs&serialLeg != 0 {
		run("serial", newSystem(), nil)
		if !c.perCall { // a per-call run already steps NewSerialExecutor
			run("serial executor", newSystem(), NewSerialExecutor())
		}
	}
	if legs&batchedLeg != 0 {
		for _, w := range slices.Compact(slices.Sorted(slices.Values([]int{2, 4, c.J}))) {
			e := NewBatchedExecutor(w)
			run(fmt.Sprint("batched workers=", w), newSystem(), e)
			if p := e.cachePlan; p.workers >= 2 && c.J > 2*chunkRAs && c.J%chunkRAs != 0 {
				seen[engineCoverage[0]] = true
			}
			for k := range e.cachePlan.chunkErr {
				seen[engineCoverage[1]] = seen[engineCoverage[1]] || e.cachePlan.chunkSpans[k+1]-e.cachePlan.chunkSpans[k] >= 2
			}
		}
	}
	if legs&remoteLeg != 0 && c.J <= 5 && c.ev == nil {
		seen["remote"] = true
		rig := newRemoteRig(t, cfg, func(env *netsim.RAEnv, j int) rl.Agent { return c.dep.agents(t, env, c.J)[j] })
		e := rig.executor(RemoteOptions{})
		sys, err := NewSystem(cfg) // never trained: remote runs need no local agents
		if err != nil {
			t.Fatal(err)
		}
		run("remote", sys, e)
		rig.close(e)
	}
}

// TestEnginesMatchOracle runs every case on the serial engine, the batched
// engine at 2, 4 and J workers and, for J ≤ 5 without a capacity event
// (the agents' envs live on their own goroutines), the remote engine over
// loopback, and requires each to record the oracle's History and
// history-log bytes. The coverage check fails when the cases stop covering
// a shape, a policy or a path of engineCoverage.
func TestEnginesMatchOracle(t *testing.T) {
	cases := engineCases()
	seen, ran := map[string]bool{}, 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			c.check(t, allLegs, seen)
		})
	}
	if ran < len(cases) {
		return // a -run filter picked some cases: coverage is the whole table's
	}
	for _, what := range engineCoverage {
		if !seen[what] {
			t.Errorf("no case covers %s", what)
		}
	}
}

// runEngineRows runs the named rows of engineCases on legs, each as a
// subtest of its name. The tests below keep the names of the per-shape
// equivalence tests the table replaced: each is a view of its rows against
// the same oracle, not a reference of its own.
func runEngineRows(t *testing.T, legs engineLeg, names ...string) {
	cases := engineCases()
	for _, name := range names {
		i := slices.IndexFunc(cases, func(c engineCase) bool { return c.name == name })
		if i < 0 {
			t.Fatalf("no engine case %q", name)
		}
		t.Run(name, func(t *testing.T) { cases[i].check(t, legs, map[string]bool{}) })
	}
}

// policyRows are the rows of one policy kind each at the same small shape.
var policyRows = []string{"EdgeSlice", "TARO", offpolicy.DDPG, onpolicy.PPO, offpolicy.SAC, onpolicy.TRPO, onpolicy.VPG}

func TestSerialExecutorIsRunPeriods(t *testing.T) { runEngineRows(t, serialLeg, policyRows...) }
func TestBatchedMatchesSerial(t *testing.T)       { runEngineRows(t, batchedLeg, policyRows...) }
func TestRemoteMatchesSerial(t *testing.T)        { runEngineRows(t, remoteLeg, "TARO", "EdgeSlice") }

// TestUsageSumsBeforeDividing: the oracle sums usage over RAs in ascending
// order and divides by J once; TARO's shares differ between RAs, so another
// order or rounding shows.
func TestUsageSumsBeforeDividing(t *testing.T) {
	runEngineRows(t, serialLeg, "TARO", "EqualShare-capacity-event")
}

func TestBatchedBaselineFallsBackToSerial(t *testing.T) {
	runEngineRows(t, batchedLeg, "TARO", "TARO-wide", "EqualShare-capacity-event")
}

func TestBatchedMixedSystemMatchesSerial(t *testing.T) {
	runEngineRows(t, batchedLeg, "two-groups")
}

func TestBatchedShardedMatchesSerial(t *testing.T) {
	runEngineRows(t, batchedLeg, "deployed-wide")
}

func TestBatchedTwoGroupsMatchesSerial(t *testing.T) {
	runEngineRows(t, batchedLeg, "two-groups-wide")
}

func TestBatchedShardedStepMatchesSerial(t *testing.T) {
	runEngineRows(t, batchedLeg, "TARO-wide", "deployed-wide", "two-groups-wide")
}

// TestRunPeriodsIntoMatchesWholeRun: a whole run and runs of one period per
// call record the same oracle History.
func TestRunPeriodsIntoMatchesWholeRun(t *testing.T) {
	runEngineRows(t, serialLeg|batchedLeg, "EdgeSlice", "deployed-light-load", "two-groups-wide", "EqualShare-capacity-event")
}

func TestRemoteRunPeriodsIntoMatchesWholeRun(t *testing.T) {
	runEngineRows(t, remoteLeg, "deployed-light-load")
}

func TestNewExecutorSpellings(t *testing.T) {
	for _, tc := range []struct {
		engine string
		want   string
	}{
		{"", EngineSerial},
		{EngineSerial, EngineSerial},
		{EngineParallel, EngineBatched},
		{EngineBatched, EngineBatched},
	} {
		e, err := NewExecutor(tc.engine, 2)
		if err != nil {
			t.Fatalf("NewExecutor(%q): %v", tc.engine, err)
		}
		if e.Name() != tc.want {
			t.Errorf("NewExecutor(%q).Name() = %q, want %q", tc.engine, e.Name(), tc.want)
		}
		if err := e.Close(); err != nil {
			t.Errorf("Close(%q): %v", tc.engine, err)
		}
	}
	if _, err := NewExecutor(EngineRemote, 0); err == nil {
		t.Error("NewExecutor(remote) should direct callers to NewRemoteExecutor")
	}
	if _, err := NewExecutor("bogus", 0); err == nil {
		t.Error("unknown engine should fail")
	}
}

// TestRemoteRejectsMismatchedHub pins that a hub sized differently from
// the system fails with an error instead of panicking mid-broadcast.
func TestRemoteRejectsMismatchedHub(t *testing.T) {
	cfg := execTestConfig(AlgoTARO) // 3 RAs, 2 slices
	sys := deployedSystem(t, cfg)
	hub, err := rcnet.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, cfg.NumRAs+1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutor(hub, time.Second)
	defer e.Close()
	if _, err := sys.RunPeriodsWith(e, 1); err == nil {
		t.Error("mismatched hub RA count should fail")
	}
}

// TestRemotePeriodAllocsIndependentOfJ is the allocation gate of a warm
// remote period: a loopback binary-codec hub, one RunAgent loop per RA whose
// TARO policy writes into scratch the agent owns, and streaming recording.
// Broadcast, the agents' decode and report, the hub's decode and collect,
// and the merge allocate nothing, so the period costs exactly the per-call
// streaming History (3 allocations) at 4 RAs as at 32.
func TestRemotePeriodAllocsIndependentOfJ(t *testing.T) {
	warmAllocs := func(J int) float64 {
		cfg := execTestConfig(AlgoTARO)
		cfg.NumRAs = J
		rig := newRemoteRig(t, cfg, func(env *netsim.RAEnv, _ int) rl.Agent { return taroAgent(env) })
		e := rig.executor(RemoteOptions{Timeout: time.Minute})
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetRecording(RecordOptions{StreamWindow: 8})
		period := func() {
			if _, err := sys.RunPeriodsWith(e, 1); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < 4; p++ { // first decodes size the buffers, the log doubles
			period()
		}
		allocs := testing.AllocsPerRun(20, period)
		rig.close(e)
		return allocs
	}
	const history = 3
	if small, large := warmAllocs(4), warmAllocs(32); small != history || large != history {
		t.Errorf("warm remote period allocates %v times at 4 RAs and %v at 32; want %v at both", small, large, history)
	}
}
