package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
	"edgeslice/internal/traffic"
)

// faultTestConfig is the operating point of the remote fault tests: three
// RAs under the deployed policy at a light load (constant λ = 7.5 on both
// slices) with a slack SLA (Umin = −2000), so y stays 0 and each RA
// observes z − y = its Σ_t U, which differs between RAs and, from period 1
// on, mostly lies inside the clamp the env observes: a resume frame
// carrying another RA's columns moves the History in later periods too.
func faultTestConfig() Config {
	cfg := execTestConfig(AlgoEdgeSlice)
	cfg.EnvTemplate.Sources = []traffic.Source{traffic.ConstantSource{Lambda: 7.5}, traffic.ConstantSource{Lambda: 7.5}}
	cfg.Umin = []float64{-2000, -2000}
	return cfg
}

// faultRig is newRemoteRig serving every RA with deployedPolicy.
func faultRig(t *testing.T, cfg Config) *remoteRig {
	return newRemoteRig(t, cfg, func(env *netsim.RAEnv, _ int) rl.Agent { return deployedPolicy(env) })
}

// oracleHistory is the oracle's exact History of n periods of cfg with
// deployedPolicy on every RA.
func oracleHistory(t *testing.T, cfg Config, n int) *History {
	t.Helper()
	h := NewHistory(cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T)
	pol := deployedPolicy(agentEnv(t, cfg, 0))
	oracleRun(t, cfg, slices.Repeat([]rl.Agent{pol}, cfg.NumRAs), n, nil, h, nil)
	return h
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

// TestRemoteSurvivesAgentKillAndRestart: one RA crashes the moment it
// receives period 2's broadcast (before stepping or reporting), a fresh
// incarnation re-registers with a fresh identically-seeded env, replays the
// completed prefix from its resume frame, and serves the retried period —
// and the run's History comes out bit-identical to the oracle's. Every
// agent runs deployedPolicy, which acts on the coordination in its State(),
// so a resume frame with the wrong (Z, Y) moves the History.
func TestRemoteSurvivesAgentKillAndRestart(t *testing.T) {
	cfg := faultTestConfig()
	const (
		periods     = 4
		victim      = 1
		crashPeriod = 2
	)
	rig := faultRig(t, cfg)
	done := make(chan error, 1)
	rig.dones[victim] = done

	// Victim, first incarnation: a manual agent loop that serves periods
	// 0..crashPeriod-1 faithfully and dies on receiving crashPeriod's
	// broadcast, without stepping or reporting it.
	env1, env2 := agentEnv(t, cfg, victim), agentEnv(t, cfg, victim)
	c1, err := rcnet.DialAgent(rig.hub.Addr(), victim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		pol := deployedPolicy(env1)
		for {
			m, err := c1.Recv(10 * time.Second)
			if err != nil {
				done <- err
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
			if err == nil {
				err = c1.Report(m.Period, perf, queues, recs)
			}
			if err != nil {
				done <- err
				return
			}
		}
		// Second incarnation: fresh env, same seed. The resume frame makes
		// RunAgent replay periods 0..crashPeriod-1, then the executor's
		// retry broadcast delivers crashPeriod for a live step.
		c2, err := rcnet.DialAgent(rig.hub.Addr(), victim, 5*time.Second)
		if err != nil {
			done <- err
			return
		}
		defer c2.Close()
		done <- rcnet.RunAgent(c2, env2, deployedPolicy(env2), 10*time.Second)
	}()

	e := rig.executor(RemoteOptions{Timeout: time.Second, RetryPeriods: 5})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	stats := rig.hub.Stats()
	rig.close(e)
	if stats.Reconnects < 1 || stats.ResumesSent < 1 {
		t.Errorf("stats = %+v, want at least one reconnect and one resume frame", stats)
	}
	requireSameRun(t, "kill-restart", oracleHistory(t, cfg, periods), h)
}

// TestRemoteKillEveryPeriod drives the run period-at-a-time (the scenario
// runner's calling pattern) and kills + restarts one RA between every
// period, so each incarnation replays a longer prefix from its resume
// frame, up to four periods. The one History the periods record into must
// still match the oracle's bit for bit.
func TestRemoteKillEveryPeriod(t *testing.T) {
	cfg := faultTestConfig()
	const (
		periods = 5
		victim  = 1
	)
	rig := faultRig(t, cfg)
	e := rig.executor(RemoteOptions{Timeout: 250 * time.Millisecond, RetryPeriods: 20})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistory(cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T)
	for p := 0; p < periods; p++ {
		if err := sys.RunPeriodsInto(e, h, 1); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if p < periods-1 {
			// The next incarnation replays p+1 periods before going live.
			rig.kill(victim)
			rig.start(victim)
		}
	}
	rig.close(e)
	requireSameRun(t, "kill-every-period", oracleHistory(t, cfg, periods), h)
}

// TestRemotePartialHistoryOnDroppedAgent pins the remote engine's
// partial-history contract: RA 0 serves two periods and then closes its
// connection, and with no retries the run fails in period 2 — returning the
// error together with a History of exactly the two completed periods, equal
// to the oracle's, and a coordinator that never applied the failed
// period's update.
func TestRemotePartialHistoryOnDroppedAgent(t *testing.T) {
	cfg := faultTestConfig()
	const served = 2
	rig := faultRig(t, cfg)
	dropped := make(chan error, 1)
	rig.dones[0] = dropped
	env0 := agentEnv(t, cfg, 0)
	c0, err := rcnet.DialAgent(rig.hub.Addr(), 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer c0.Close()
		pol := deployedPolicy(env0)
		for p := 0; p < served; p++ {
			m, err := c0.Recv(5 * time.Second)
			if err != nil {
				dropped <- err
				return
			}
			perf, queues, recs, err := stepAgentPeriod(env0, pol, m.Z, m.Y)
			if err == nil {
				err = c0.Report(m.Period, perf, queues, recs)
			}
			if err != nil {
				dropped <- err
				return
			}
		}
		dropped <- nil
	}()

	e := rig.executor(RemoteOptions{Timeout: 500 * time.Millisecond})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriodsWith(e, 5)
	if err == nil {
		t.Fatal("the run should fail after RA 0 drops")
	}
	if h.Periods() != served {
		t.Fatalf("partial history holds %d periods, want the %d completed ones", h.Periods(), served)
	}
	requireSameRun(t, "partial", oracleHistory(t, cfg, served), h)
	if it := sys.Coordinator().Iterations(); it != served {
		t.Errorf("coordinator ran %d iterations, want %d (the failed period must not update)", it, served)
	}
	rig.close(e)
}

// TestCoordinatorResumeFromLog is the coordinator-crash half of the resume
// contract: segment 1 runs remotely while appending the history log, the
// "crash" leaves stray in-flight intervals and a torn record at the tail,
// and segment 2 — a fresh System, hub, and fresh agents — resumes from the
// log and continues bit-identically. The continued log must also replay as
// one seamless run.
func TestCoordinatorResumeFromLog(t *testing.T) {
	cfg := faultTestConfig()
	const (
		totalPeriods = 5
		firstRun     = 3
	)
	hRef := oracleHistory(t, cfg, totalPeriods)
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	T := cfg.EnvTemplate.T
	path := filepath.Join(t.TempDir(), "run.histlog")

	// Segment 1: remote run of the first periods, logging to disk.
	rig1 := faultRig(t, cfg)
	e1 := rig1.executor(RemoteOptions{})
	sys1, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hlog1, err := CreateHistoryLog(path, I, J, T)
	if err != nil {
		t.Fatal(err)
	}
	sys1.SetRecording(RecordOptions{Log: hlog1})
	if _, err := sys1.RunPeriodsWith(e1, firstRun); err != nil {
		t.Fatal(err)
	}
	rig1.close(e1)
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
	rig2 := faultRig(t, cfg)
	if err := rig2.hub.PrimeResume(pre.Periods(), zs, ys); err != nil {
		t.Fatal(err)
	}
	e2 := rig2.executor(RemoteOptions{})
	sys2.SetRecording(RecordOptions{Log: hlog2})
	if err := sys2.RunPeriodsInto(e2, pre, totalPeriods-firstRun); err != nil {
		t.Fatal(err)
	}
	rig2.close(e2)
	if err := hlog2.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(pre, hRef) {
		t.Error("resumed run's continued history differs from the oracle's")
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
		t.Error("continued log's replay differs from the oracle's")
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
