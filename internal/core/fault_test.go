package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
)

// remoteAgentEnv reproduces NewSystem's env derivation for RA j so remote
// agents step the exact environments a local run steps.
func remoteAgentEnv(t *testing.T, cfg Config, j int) *netsim.RAEnv {
	t.Helper()
	envCfg := cfg.EnvTemplate
	envCfg.ObserveQueue = true
	envCfg.TrainCoordRandom = false
	envCfg.Seed = cfg.Seed + int64(j)*7919
	env, err := netsim.New(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// stepAgentPeriod runs one coordination period through env exactly like
// rcnet.RunAgent does, returning the report payload with full interval
// records — the manual agent loops below use it to control when an agent
// "crashes" relative to period boundaries.
func stepAgentPeriod(env *netsim.RAEnv, pol rl.Agent, z, y []float64) (perf []float64, queues []int, recs []rcnet.IntervalRecord, err error) {
	if err := env.SetCoordination(z, y); err != nil {
		return nil, nil, nil, err
	}
	T := env.Config().T
	recs = make([]rcnet.IntervalRecord, T)
	for tt := 0; tt < T; tt++ {
		res, err := env.StepInterval(pol.Act(env.State()))
		if err != nil {
			return nil, nil, nil, err
		}
		eff := make([][]float64, len(res.Effective))
		for i := range res.Effective {
			eff[i] = append([]float64(nil), res.Effective[i][:]...)
		}
		recs[tt] = rcnet.IntervalRecord{
			Perf:      res.Perf,
			Queues:    res.QueueLens,
			Effective: eff,
			Violation: res.Violation,
		}
	}
	return env.PeriodPerf(), env.QueueLens(), recs, nil
}

// startRemoteAgent dials the hub as RA j with a fresh deterministic env and
// runs rcnet.RunAgent with deployedPolicy in a goroutine: the policy acts on
// the (Z, Y) in its State(), so an agent handed the wrong coordination —
// live or in its resume frame — moves the History. Callers compare against
// deployedSystem over an AlgoEdgeSlice config, which runs the same policy.
// The returned channel carries the loop's exit error; the returned client
// lets the test kill the agent.
func startRemoteAgent(t *testing.T, hub *rcnet.Hub, cfg Config, j int) (*rcnet.AgentClient, chan error) {
	t.Helper()
	env := remoteAgentEnv(t, cfg, j)
	client, err := rcnet.DialAgent(hub.Addr(), j, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer client.Close()
		done <- rcnet.RunAgent(client, env, deployedPolicy(env), 5*time.Second)
	}()
	return client, done
}

// TestRemoteSurvivesAgentKillAndRestart: one RA crashes the moment it
// receives period 2's broadcast (before stepping or reporting), a fresh
// incarnation re-registers with a fresh identically-seeded env, replays the
// completed prefix from its resume frame, and serves the retried period —
// and the run's History comes out bit-identical to an uninterrupted serial
// run. Every agent runs deployedPolicy, which acts on the coordination in
// its State(), so a resume frame with the wrong (Z, Y) moves the History.
func TestRemoteSurvivesAgentKillAndRestart(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	const (
		periods     = 4
		victim      = 1
		crashPeriod = 2
	)
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
		if j == victim {
			continue
		}
		j := j
		env := remoteAgentEnv(t, cfg, j)
		client, err := rcnet.DialAgent(hub.Addr(), j, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			agentErrs[j] = rcnet.RunAgent(client, env, deployedPolicy(env), 10*time.Second)
		}()
	}

	// Victim, first incarnation: a manual agent loop that serves periods
	// 0..crashPeriod-1 faithfully and dies on receiving crashPeriod's
	// broadcast, without stepping or reporting it.
	env1 := remoteAgentEnv(t, cfg, victim)
	c1, err := rcnet.DialAgent(hub.Addr(), victim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pol := deployedPolicy(env1)
		for {
			m, err := c1.Recv(10 * time.Second)
			if err != nil {
				agentErrs[victim] = err
				return
			}
			if m.Type != rcnet.MsgCoordination {
				continue
			}
			if m.Period == crashPeriod {
				_ = c1.Close() // crash mid-period, before reporting
				break
			}
			perf, queues, recs, err := stepAgentPeriod(env1, pol, m.Z, m.Y)
			if err != nil {
				agentErrs[victim] = err
				return
			}
			if err := c1.Report(m.Period, perf, queues, recs); err != nil {
				agentErrs[victim] = err
				return
			}
		}
		// Second incarnation: fresh env, same seed. The resume frame makes
		// RunAgent replay periods 0..crashPeriod-1, then the executor's
		// retry broadcast delivers crashPeriod for a live step.
		env2 := remoteAgentEnv(t, cfg, victim)
		c2, err := rcnet.DialAgent(hub.Addr(), victim, 5*time.Second)
		if err != nil {
			agentErrs[victim] = err
			return
		}
		defer c2.Close()
		agentErrs[victim] = rcnet.RunAgent(c2, env2, deployedPolicy(env2), 10*time.Second)
	}()

	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: time.Second, RetryPeriods: 5})
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	stats := hub.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for j, err := range agentErrs {
		if err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	if stats.Reconnects < 1 || stats.ResumesSent < 1 {
		t.Errorf("stats = %+v, want at least one reconnect and one resume frame", stats)
	}
	requireSameRun(t, "kill-restart", hRef, h)
}

// TestRemoteKillEveryPeriod drives the run period-at-a-time (the scenario
// runner's calling pattern) and kills + restarts one RA between every
// period, so each incarnation replays a longer prefix from its resume
// frame. The one History the periods record into must still match the
// serial run bit for bit.
// The victim is RA 1 because its period-1 Z−Y lies inside the range the
// env observes (its neighbours' are clamped), so a resume frame carrying
// another RA's columns moves what deployedPolicy does.
func TestRemoteKillEveryPeriod(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	const (
		periods = 3
		victim  = 1
	)
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
	clients := make([]*rcnet.AgentClient, J)
	dones := make([]chan error, J)
	for j := 0; j < J; j++ {
		clients[j], dones[j] = startRemoteAgent(t, hub, cfg, j)
	}
	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: time.Second, RetryPeriods: 5})
	h := NewHistory(hRef.NumSlices, hRef.NumRAs, hRef.T)
	for p := 0; p < periods; p++ {
		if err := sys.RunPeriodsInto(e, h, 1); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if p == periods-1 {
			break
		}
		// Kill the victim between periods and restart it with a fresh env:
		// the next incarnation replays p+1 periods before going live.
		_ = clients[victim].Close()
		if err := <-dones[victim]; err == nil {
			t.Fatal("killed agent loop should exit with a read error")
		}
		clients[victim], dones[victim] = startRemoteAgent(t, hub, cfg, victim)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < J; j++ {
		if err := <-dones[j]; err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	requireSameRun(t, "kill-every-period", hRef, h)
}

// TestRemotePartialHistoryOnDroppedAgent pins the remote engine's
// partial-history contract: RA 0 serves two periods and then closes its
// connection, and with no retries the run fails in period 2 — returning the
// error together with a History of exactly the two completed periods, equal
// to the reference run's, and a coordinator that never applied the failed
// period's update.
func TestRemotePartialHistoryOnDroppedAgent(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	const served = 2
	ref := deployedSystem(t, cfg)
	hRef := referenceRun(t, ref, served)

	hub, err := rcnet.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, cfg.NumRAs)
	if err != nil {
		t.Fatal(err)
	}
	env0 := remoteAgentEnv(t, cfg, 0)
	c0, err := rcnet.DialAgent(hub.Addr(), 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() {
		defer c0.Close()
		pol := deployedPolicy(env0)
		for p := 0; p < served; p++ {
			m, err := c0.Recv(5 * time.Second)
			period, z, y := m.Period, m.Z, m.Y
			if err != nil {
				dropped <- err
				return
			}
			perf, queues, recs, err := stepAgentPeriod(env0, pol, z, y)
			if err == nil {
				err = c0.Report(period, perf, queues, recs)
			}
			if err != nil {
				dropped <- err
				return
			}
		}
		dropped <- nil
	}()
	dones := make([]chan error, cfg.NumRAs)
	for j := 1; j < cfg.NumRAs; j++ {
		_, dones[j] = startRemoteAgent(t, hub, cfg, j)
	}
	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: 500 * time.Millisecond})
	h, err := sys.RunPeriodsWith(e, 5)
	if err == nil {
		t.Fatal("the run should fail after RA 0 drops")
	}
	if h.Periods() != served {
		t.Fatalf("partial history holds %d periods, want the %d completed ones", h.Periods(), served)
	}
	requireSameRun(t, "partial", hRef, h)
	if it := sys.Coordinator().Iterations(); it != served {
		t.Errorf("coordinator ran %d iterations, want %d (the failed period must not update)", it, served)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-dropped; err != nil {
		t.Errorf("RA 0: %v", err)
	}
	for j := 1; j < cfg.NumRAs; j++ {
		if err := <-dones[j]; err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
}

// TestCoordinatorResumeFromLog is the coordinator-crash half of the resume
// contract: segment 1 runs remotely while appending the history log, the
// "crash" leaves stray in-flight intervals and a torn record at the tail,
// and segment 2 — a fresh System, hub, and fresh agents — resumes from the
// log and continues bit-identically. The continued log must also replay as
// one seamless run.
func TestCoordinatorResumeFromLog(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	const (
		totalPeriods = 5
		firstRun     = 3
	)
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(totalPeriods)
	if err != nil {
		t.Fatal(err)
	}
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	T := cfg.EnvTemplate.T
	path := filepath.Join(t.TempDir(), "run.histlog")

	// Segment 1: remote run of the first periods, logging to disk.
	hub1, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	dones1 := make([]chan error, J)
	for j := 0; j < J; j++ {
		_, dones1[j] = startRemoteAgent(t, hub1, cfg, j)
	}
	if err := hub1.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys1, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hlog1, err := CreateHistoryLog(path, I, J, T)
	if err != nil {
		t.Fatal(err)
	}
	sys1.SetRecording(RecordOptions{Log: hlog1})
	e1 := NewRemoteExecutor(hub1, 10*time.Second)
	if _, err := sys1.RunPeriodsWith(e1, firstRun); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < J; j++ {
		if err := <-dones1[j]; err != nil {
			t.Errorf("segment 1 agent %d: %v", j, err)
		}
	}
	// Simulate the crash mid-period firstRun: a stray interval record of
	// the in-flight period, then a torn record from the dying writer.
	usage := make([][]float64, I)
	for i := range usage {
		usage[i] = make([]float64, netsim.NumResources)
	}
	if err := hlog1.LogInterval(0.5, make([]float64, I), usage, 0); err != nil {
		t.Fatal(err)
	}
	if err := hlog1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x42, 0x42}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Segment 2: resume from the log with a fresh coordinator and agents.
	hlog2, pre, err := OpenHistoryLogAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Periods() != firstRun || pre.Intervals() != firstRun*T {
		t.Fatalf("resumed prefix has %d periods / %d intervals, want %d / %d",
			pre.Periods(), pre.Intervals(), firstRun, firstRun*T)
	}
	sys2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zs, ys, err := sys2.PrimeFromHistory(pre)
	if err != nil {
		t.Fatal(err)
	}
	hub2, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub2.PrimeResume(pre.Periods(), zs, ys); err != nil {
		t.Fatal(err)
	}
	dones2 := make([]chan error, J)
	for j := 0; j < J; j++ {
		_, dones2[j] = startRemoteAgent(t, hub2, cfg, j)
	}
	if err := hub2.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys2.SetRecording(RecordOptions{Log: hlog2})
	e2 := NewRemoteExecutor(hub2, 10*time.Second)
	if err := sys2.RunPeriodsInto(e2, pre, totalPeriods-firstRun); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < J; j++ {
		if err := <-dones2[j]; err != nil {
			t.Errorf("segment 2 agent %d: %v", j, err)
		}
	}
	if err := hlog2.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(pre, hRef) {
		t.Error("resumed run's continued history differs from the uninterrupted serial run")
	}
	// The continued log replays as one seamless, untruncated run.
	whole, truncated, err := ReplayHistoryLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("continued log reports a truncated tail")
	}
	if !reflect.DeepEqual(whole, hRef) {
		t.Error("continued log's replay differs from the serial run")
	}
}

// TestOpenHistoryLogAppendCutsToWholePeriods pins the log-resume cut rule
// on synthetic records: stray in-flight intervals and a torn tail are
// discarded, the whole-period prefix is returned, and appending continues
// in place.
func TestOpenHistoryLogAppendCutsToWholePeriods(t *testing.T) {
	const I, J, T = 2, 2, 4
	path := filepath.Join(t.TempDir(), "cut.histlog")
	log, err := CreateHistoryLog(path, I, J, T)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	whole, want := NewHistory(I, J, T), NewHistory(I, J, T)
	synthRecords(rng, 2*T, whole, want) // two whole periods
	logRecords(t, log, whole)
	stray := NewHistory(I, J, T)
	synthRecords(rng, 2, stray) // two intervals of an in-flight period
	logRecords(t, log, stray)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil { // torn record
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cont, pre, err := OpenHistoryLogAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre, whole) {
		t.Fatalf("resumed prefix (%d periods, %d intervals) differs from the whole-period history",
			pre.Periods(), pre.Intervals())
	}
	third := NewHistory(I, J, T)
	synthRecords(rng, T, third, want)
	logRecords(t, cont, third)
	if err := cont.Close(); err != nil {
		t.Fatal(err)
	}

	got, truncated, err := ReplayHistoryLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("continued log reports a truncated tail")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("continued log replays %d periods / %d intervals, differs from the records written",
			got.Periods(), got.Intervals())
	}

	// Error paths: files that are not resumable history logs.
	garbage := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(garbage, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenHistoryLogAppend(garbage); err == nil {
		t.Error("garbage file should not open for append")
	}
	if _, _, err := OpenHistoryLogAppend(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should not open for append")
	}
}

// TestPrimeFromHistoryValidation pins the resume preconditions.
func TestPrimeFromHistoryValidation(t *testing.T) {
	cfg := execTestConfig(AlgoTARO)
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	T := cfg.EnvTemplate.T

	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PrimeFromHistory(nil); err == nil {
		t.Error("nil history should be rejected")
	}
	if _, _, err := s.PrimeFromHistory(NewStreamingHistory(I, J, T, 8)); err == nil {
		t.Error("streaming history should be rejected")
	}
	if _, _, err := s.PrimeFromHistory(NewHistory(I+1, J, T)); err == nil {
		t.Error("mis-shaped history should be rejected")
	}
	partial := NewHistory(I, J, T)
	synthRecords(rand.New(rand.NewSource(43)), T-1, partial) // not a whole period
	if _, _, err := s.PrimeFromHistory(partial); err == nil {
		t.Error("partial-period history should be rejected")
	}
	// Priming an already-primed (used) system is rejected.
	whole := NewHistory(I, J, T)
	synthRecords(rand.New(rand.NewSource(44)), T, whole)
	if _, _, err := s.PrimeFromHistory(whole); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PrimeFromHistory(whole); err == nil {
		t.Error("second prime on a used system should be rejected")
	}
}

// TestHealthReportsLiveness pins the SystemHealth liveness wiring.
func TestHealthReportsLiveness(t *testing.T) {
	s := deployedSystem(t, execTestConfig(AlgoTARO))
	h := s.Health()
	if h.AgentsLive != 0 || h.AgentsRegistered != 0 || h.AgentsExpected != 0 {
		t.Errorf("health without a liveness probe reports %d/%d/%d, want zeros",
			h.AgentsLive, h.AgentsRegistered, h.AgentsExpected)
	}
	s.SetLiveness(func() (int, int, int) { return 1, 2, 3 })
	h = s.Health()
	if h.AgentsLive != 1 || h.AgentsRegistered != 2 || h.AgentsExpected != 3 {
		t.Errorf("health reports %d/%d/%d, want 1/2/3",
			h.AgentsLive, h.AgentsRegistered, h.AgentsExpected)
	}
	s.SetLiveness(nil)
	if h := s.Health(); h.AgentsExpected != 0 {
		t.Error("clearing the liveness probe should clear the health fields")
	}
}
