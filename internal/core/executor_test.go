package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
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
	actor := nn.NewMLP(rand.New(rand.NewSource(7)), env.StateDim(),
		nn.LayerSpec{Out: 16, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: env.ActionDim(), Act: nn.ActSigmoid},
	)
	return rl.NewDeployedPolicy(actor, false)
}

// referenceStage is the step phase the serial engine ran before every
// in-process engine became the batch plan, kept here as a reference that is
// not under test: each RA takes its (Z, Y) column through its view, then
// every interval each RA in turn acts on its own observation
// (Act(env.State()) for a learning agent, the baseline's action otherwise)
// and steps alone through its view; Σ_t U comes from each view's
// PeriodPerf.
type referenceStage struct{}

func (referenceStage) step(s *System, ws *periodWS, _ int) error {
	I := ws.I
	z, y := make([]float64, I), make([]float64, I)
	for j, env := range s.envs {
		s.coord.ColumnInto(j, z, y)
		if err := env.SetCoordination(z, y); err != nil {
			return err
		}
	}
	var res netsim.StepResult
	for t := 0; t < ws.T; t++ {
		perf, eff, viol := ws.interval(t)
		for j, env := range s.envs {
			act := make([]float64, I*netsim.NumResources)
			switch {
			case s.cfg.Algo.IsLearning():
				act = s.agents[j].Act(env.State())
			case s.cfg.Algo == AlgoEqualShare:
				baseline.EqualShareInto(act, I)
			default:
				if err := baseline.TAROInto(act, env.QueueLens()); err != nil {
					return err
				}
			}
			if err := env.StepInto(act, &res); err != nil {
				return err
			}
			copy(perf[j*I:], res.Perf)
			copy(eff[j*I:], res.Effective)
			viol[j] = res.Violation
		}
	}
	for j, env := range s.envs {
		for i, v := range env.PeriodPerf() {
			ws.perf[i][j] = v
		}
	}
	return nil
}

func (referenceStage) recorded(int) {}

// referenceRun runs n periods with referenceStage as the step phase.
func referenceRun(t *testing.T, s *System, n int) *History {
	t.Helper()
	if err := s.checkRunnable(n); err != nil {
		t.Fatal(err)
	}
	h := s.newRunHistory()
	if err := s.runPeriods(h, n, referenceStage{}); err != nil {
		t.Fatal(err)
	}
	return h
}

// forEachPolicy runs fn as one subtest per deployment the determinism tests
// cover on a 3-RA system: the TARO baseline, EdgeSlice under a loaded
// policy, and a shared agent of each of the five training algorithms.
// deploy builds a fresh system, identical every call.
func forEachPolicy(t *testing.T, fn func(t *testing.T, deploy func() *System)) {
	for _, algo := range []Algorithm{AlgoTARO, AlgoEdgeSlice} {
		t.Run(algo.String(), func(t *testing.T) {
			fn(t, func() *System { return deployedSystem(t, execTestConfig(algo)) })
		})
	}
	for _, algo := range trainerNames {
		t.Run(algo, func(t *testing.T) {
			fn(t, func() *System { return algoSystem(t, execTestConfig(AlgoEdgeSlice), algo) })
		})
	}
}

// requireEngineMatchesReference runs four periods under engines built by
// newExec for each worker count and requires the reference run's History.
func requireEngineMatchesReference(t *testing.T, deploy func() *System, newExec func(workers int) Executor) {
	t.Helper()
	ref := deploy()
	hRef := referenceRun(t, ref, 4)
	for _, workers := range []int{1, 4, ref.NumRAs()} {
		e := newExec(workers)
		s := deploy()
		h, err := s.RunPeriodsWith(e, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, fmt.Sprintf("%s workers=%d", e.Name(), workers), hRef, h)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameRun requires two runs' Histories to be deeply equal. A History
// carries each RA's per-period perf, which is monotone in queue length, so
// it also pins the queues every RA ran through.
func requireSameRun(t *testing.T, label string, hWant, hGot *History) {
	t.Helper()
	if !reflect.DeepEqual(hWant, hGot) {
		t.Errorf("%s: history differs from serial run", label)
	}
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

// TestSerialExecutorIsRunPeriods pins that System.RunPeriods and the
// explicit serial engine — the batch plan at one worker — record the
// interleaved reference run's History, for a baseline and every kind of
// policy.
func TestSerialExecutorIsRunPeriods(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, deploy func() *System) {
		ref := deploy()
		hRef := referenceRun(t, ref, 4)
		s1, s2 := deploy(), deploy()
		h1, err := s1.RunPeriods(4)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := s2.RunPeriodsWith(NewSerialExecutor(), 4)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, "RunPeriods", hRef, h1)
		requireSameRun(t, "serial-executor", hRef, h2)
	})
}

// TestUsageSumsBeforeDividing pins the usage-accumulation semantics: the
// recorded per-interval usage is Σ_j Effective[i][k] divided once by J —
// not J separate additions of Effective/J, which accumulates J roundings.
func TestUsageSumsBeforeDividing(t *testing.T) {
	cfg := execTestConfig(AlgoEqualShare)
	s := deployedSystem(t, cfg)
	h, err := s.RunPeriods(2)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the expected usage from identically-seeded shadow
	// environments stepped with the same (static) equal-share action.
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	act, err := baseline.EqualShare(I, netsim.NumResources)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]*netsim.RAEnv, J)
	for j := 0; j < J; j++ {
		envCfg := cfg.EnvTemplate
		envCfg.ObserveQueue = true
		envCfg.TrainCoordRandom = false
		envCfg.Seed = cfg.Seed + int64(j)*7919
		env, err := netsim.New(envCfg)
		if err != nil {
			t.Fatal(err)
		}
		envs[j] = env
	}
	for ti := 0; ti < h.Intervals(); ti++ {
		want := make([][]float64, I)
		for i := range want {
			want[i] = make([]float64, netsim.NumResources)
		}
		for j := 0; j < J; j++ {
			res, err := envs[j].StepInterval(act)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < I; i++ {
				for k := 0; k < netsim.NumResources; k++ {
					want[i][k] += res.Effective[i][k]
				}
			}
		}
		for i := 0; i < I; i++ {
			for k := 0; k < netsim.NumResources; k++ {
				if got := h.IntervalColumn(1 + I + i*netsim.NumResources + k)[ti]; got != want[i][k]/float64(J) {
					t.Fatalf("interval %d usage[%d][%d] = %v, want sum-then-divide %v",
						ti, i, k, got, want[i][k]/float64(J))
				}
			}
		}
	}
}

// TestRemoteMatchesSerial runs the same deployment twice — once locally
// under the serial engine, once as a hub plus in-process RunAgent loops
// under the remote engine — and requires identical Histories: the
// distributed path finally records everything a local run
// does.
func TestRemoteMatchesSerial(t *testing.T) {
	cfg := execTestConfig(AlgoTARO)
	const periods = 3

	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}

	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	agentErrs := make([]error, J)
	for j := 0; j < J; j++ {
		// Reproduce NewSystem's env derivation so the remote RAs step the
		// exact environments the local run stepped.
		envCfg := cfg.EnvTemplate
		envCfg.ObserveQueue = true
		envCfg.TrainCoordRandom = false
		envCfg.Seed = cfg.Seed + int64(j)*7919
		env, err := netsim.New(envCfg)
		if err != nil {
			t.Fatal(err)
		}
		policy := rl.AgentFunc(func([]float64) []float64 {
			a, err := baseline.TARO(env.QueueLens(), netsim.NumResources)
			if err != nil {
				panic(err)
			}
			return a
		})
		client, err := rcnet.DialAgent(hub.Addr(), j, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			defer client.Close()
			agentErrs[j] = rcnet.RunAgent(client, env, policy, 10*time.Second)
		}(j)
	}
	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg) // never trained: remote runs need no local agents
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutor(hub, 10*time.Second)
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for j, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", j, err)
		}
	}
	requireSameRun(t, "remote", hRef, h)
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
		hub, err := rcnet.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, J)
		if err != nil {
			t.Fatal(err)
		}
		dones := make([]chan error, J)
		for j := range dones {
			env := remoteAgentEnv(t, cfg, j)
			queues, act := make([]int, cfg.EnvTemplate.NumSlices), make([]float64, env.ActionDim())
			policy := rl.AgentFunc(func([]float64) []float64 {
				env.QueueLensInto(queues)
				if err := baseline.TAROInto(act, queues); err != nil {
					panic(err)
				}
				return act
			})
			client, err := rcnet.DialAgentCodec(hub.Addr(), j, 5*time.Second, rcnet.CodecBinary)
			if err != nil {
				t.Fatal(err)
			}
			dones[j] = make(chan error, 1)
			go func() {
				defer client.Close()
				dones[j] <- rcnet.RunAgent(client, env, policy, time.Minute)
			}()
		}
		if err := hub.WaitRegistered(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetRecording(RecordOptions{StreamWindow: 8})
		e := NewRemoteExecutor(hub, time.Minute)
		period := func() {
			if _, err := sys.RunPeriodsWith(e, 1); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < 4; p++ { // first decodes size the buffers, the log doubles
			period()
		}
		allocs := testing.AllocsPerRun(20, period)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for j, done := range dones {
			if err := <-done; err != nil {
				t.Errorf("agent %d: %v", j, err)
			}
		}
		return allocs
	}
	const history = 3
	if small, large := warmAllocs(4), warmAllocs(32); small != history || large != history {
		t.Errorf("warm remote period allocates %v times at 4 RAs and %v at 32; want %v at both", small, large, history)
	}
}
