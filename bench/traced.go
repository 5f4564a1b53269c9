package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/telemetry"
)

// runTraced is the separate traced pass that produces the per-layer
// numbers. It runs the workload's op loop once more (per-op times and heap
// samples only), then the layer replays of every family under spans, then
// the single-call probes. The local replay, the engine comparison and the
// probes run at the workload's own shape; the remote, training and sweep
// replays have one fixed shape each, so every traced run measures every
// layer and no metric is ever a placeholder. End-to-end metrics are never
// taken from here.
func runTraced(name string, o runOpts) *result {
	r := &result{Workload: name, Traced: true, Metrics: map[string]sample{}}
	fail := r.fail
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(o.tmpDir, "traced-")
	if err != nil {
		return fail(err)
	}
	base := runtime.NumGoroutine()
	w, err := newWorkload(name, o)
	if err != nil {
		return fail(err)
	}
	if err := w.setup(); err != nil {
		return fail(errors.Join(err, w.close()))
	}
	r.Config = w.config()
	sh := w.shape()
	l := runOps(w, o.seconds, true)
	r.Attempted, r.Failed, r.WallS = l.ops, l.failed, l.wall.Seconds()
	finish(w, r, l.err, base)
	if !r.Correct {
		return r
	}

	m := r.Metrics
	perPeriod := make([]float64, len(l.opMS))
	for i, ms := range l.opMS {
		perPeriod[i] = ms / float64(sh.periodsPerOp)
	}
	m["core.period_ms_p95"] = sample{quantile(perPeriod, 0.95), "ms", len(perPeriod)}
	m["core.heap_peak_mb"] = sample{float64(l.heapPeak) / (1 << 20), "MiB", len(perPeriod)}
	m["core.allocs_per_ra_period"] = sample{float64(l.mallocs) / float64(l.ops) / float64(sh.raPeriodsPerOp), "count", l.ops}

	tr := newTracer()
	o.tmpDir = dir
	steps := []struct {
		gate string
		run  func() error
	}{
		{"replay:local", func() error { return localTrace(sh.local, o, tr, m) }},
		{"replay:remote", func() error { return remoteTrace(o, tr, m) }},
		{"replay:train", func() error { return trainTrace(o, tr, m) }},
		{"replay:sweep", func() error { return sweepTrace(o, tr, m) }},
		{"probes", func() error { return layerProbes(sh.local, o.sc, dir, m) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fail(fmt.Errorf("%s: %w", s.gate, errors.Join(err, os.RemoveAll(dir))))
		}
		r.Gates = append(r.Gates, s.gate)
	}
	m["core.engine_residual_ms"] = sample{median(perPeriod) - m["core.replay_period_ms"].Value, "ms", len(perPeriod)}
	if n := waitGoroutines(base); n > 0 {
		return fail(fmt.Errorf("traced pass leaked %d goroutine(s)", n))
	}
	if err := os.RemoveAll(dir); err != nil {
		return fail(err)
	}
	for _, d := range perLayer {
		if s, ok := m[d.Name]; !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fail(fmt.Errorf("per-layer metric %s missing or not finite", d.Name))
		}
	}
	if r.TraceFile, err = writeTrace(o.resDir, name, o.seed, o.sc, tr.spans); err != nil {
		return fail(err)
	}
	return r
}

// timedPeriods calls period until it has run at least minN times and for
// at least 300 ms (capped at 200 calls), returning each call's wall time in
// milliseconds. Small systems get enough samples for a median; 2048-RA ones
// stay within the run's time budget.
func timedPeriods(minN int, period func(n int) error) ([]float64, error) {
	var ms []float64
	start := time.Now()
	for n := 0; n < 200 && (n < minN || time.Since(start) < 300*time.Millisecond); n++ {
		t := time.Now()
		if err := period(n); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return ms, nil
}

// localTrace admits and traces the local layer replay at lc, then times the
// three in-process engines at the same shape.
func localTrace(lc localConfig, o runOpts, tr *tracer, m map[string]sample) error {
	if err := admitLocalReplay(lc, o.mutateReplay); err != nil {
		return err
	}
	r, err := newLocalReplay(lc, lc.Window, nil)
	if err != nil {
		return err
	}
	on, off := tr.track(), (*tracer)(nil).track()
	if _, err := r.period(off, -1); err != nil { // warm-up, as the workloads do
		return err
	}
	// Spans-on and spans-off periods of the one replay run in pairs, each
	// pair in a seeded random order: both halves see the same drift in system
	// state, and a garbage collection that recurs every few periods cannot
	// keep landing on the same half.
	rng := rand.New(rand.NewSource(o.seed))
	var onMS, offMS []float64
	timed := func(k *track, op int, ms *[]float64) error {
		t := time.Now()
		_, err := r.period(k, op)
		*ms = append(*ms, float64(time.Since(t).Nanoseconds())/1e6)
		return err
	}
	_, err = timedPeriods(2*o.sc.EnginePeriods, func(pair int) error {
		if rng.Intn(2) == 0 {
			return errors.Join(timed(on, pair, &onMS), timed(off, pair, &offMS))
		}
		return errors.Join(timed(off, pair, &offMS), timed(on, pair, &onMS))
	})
	if err != nil {
		return err
	}
	stats := aggregate(tr.spans)
	root := stats["core.replay_period"]
	m["core.replay_period_ms"] = sample{root.medianMS(), "ms", root.Spans}
	self, total := layerSelf(tr.spans, "core.replay_period")
	m["netsim.share"] = sample{float64(self["netsim"]) / float64(total), "share", root.Spans}
	m["bench.trace_overhead_share"] = sample{(median(onMS) - median(offMS)) / median(offMS), "share", len(onMS) + len(offMS)}

	for _, engine := range []string{core.EngineSerial, core.EngineParallel, core.EngineBatched} {
		sys, err := lc.newSystem()
		if err != nil {
			return err
		}
		sys.SetRecording(core.RecordOptions{StreamWindow: lc.Window})
		exec, err := core.NewExecutor(engine, lc.Workers)
		if err != nil {
			return err
		}
		_, err = sys.RunPeriodsWith(exec, 1)
		var ms []float64
		if err == nil {
			ms, err = timedPeriods(o.sc.EnginePeriods, func(int) error {
				_, err := sys.RunPeriodsWith(exec, 1)
				return err
			})
		}
		if err = errors.Join(err, exec.Close()); err != nil {
			return err
		}
		m["core."+engine+"_period_ms"] = sample{median(ms), "ms", len(ms)}
	}
	return nil
}

// spanCoverage is the share of the replay period its child spans account
// for: the acceptance check that the layer rows explain the period.
func spanCoverage(spans []span) float64 {
	st := aggregate(spans)["core.replay_period"]
	if st == nil || st.TotalNS == 0 {
		return 0
	}
	return 1 - float64(st.SelfNS)/float64(st.TotalNS)
}

// remoteTrace runs the bench-owned coordinator and agent loops over a
// loopback hub, admits them against a local serial run's history log, and
// then measures the wire floor with agents that echo a precomputed report.
func remoteTrace(o runOpts, tr *tracer, m map[string]sample) error {
	lc := newRemoteWorkload(o.seed, o.sc, o.tmpDir).cfg.localConfig
	periods := 10 * o.sc.Agents
	agentSys, err := lc.newSystem()
	if err != nil {
		return err
	}
	coordSys, err := lc.newSystem()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	hlog, err := core.NewHistoryLog(telemetry.NewLogWriter(&buf), lc.Slices, lc.RAs, lc.T)
	if err != nil {
		return err
	}
	f, err := startFleet(lc.Slices, lc.RAs, 1, rcnet.CodecBinary, func(ra int, c *rcnet.AgentClient) error {
		env := agentSys.Env(ra)
		return tracedAgentLoop(tr, c, env, taroPolicy(env))
	})
	if err != nil {
		return err
	}
	before := f.hub.Stats()
	rr := &remoteReplay{recorder: newRecorder(coordSys, lc, 0, hlog), hub: f.hub}
	k := tr.track()
	var runErr error
	for p := 0; p < periods && runErr == nil; p++ {
		_, runErr = rr.period(k, p)
	}
	after, dropped := f.hub.Stats(), f.dropped()
	if err := errors.Join(runErr, f.stop(), hlog.Close()); err != nil {
		return err
	}
	want, err := lc.engineLogBytes(core.EngineSerial, periods)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, buf.Bytes()) {
		return errors.New("remote layer replay rejected: its history log differs from a local serial run's")
	}
	stats := aggregate(tr.spans)
	for metric, spanName := range map[string]string{
		"rcnet.broadcast_ms":    "rcnet.Broadcast",
		"rcnet.collect_wait_ms": "rcnet.CollectReportsInto",
		"rcnet.agent_step_ms":   "rcnet.agent_step",
	} {
		m[metric] = sample{stats[spanName].medianMS(), "ms", stats[spanName].Spans}
	}
	m["rcnet.agent_report_us"] = sample{stats["rcnet.Report"].medianMS() * 1e3, "us", stats["rcnet.Report"].Spans}
	frames := func(st rcnet.HubStats) (n uint64) {
		for _, c := range st.FramesIn {
			n += c
		}
		for _, c := range st.FramesOut {
			n += c
		}
		return n
	}
	m["rcnet.bytes_per_period"] = sample{float64(after.BytesIn+after.BytesOut-before.BytesIn-before.BytesOut) / float64(periods), "B", periods}
	m["rcnet.frames_per_period"] = sample{float64(frames(after)-frames(before)) / float64(periods), "count", periods}
	m["rcnet.reports_dropped"] = sample{float64(dropped), "count", periods}

	// Wire floor: the same report sizes with no simulation behind them.
	_, _, recs, err := agentStep(agentSys.Env(0), taroPolicy(agentSys.Env(0)), make([]float64, lc.Slices), make([]float64, lc.Slices))
	if err != nil {
		return err
	}
	perf, queues := make([]float64, lc.Slices), make([]int, lc.Slices)
	for _, codec := range []rcnet.Codec{rcnet.CodecBinary, rcnet.CodecJSON} {
		ms, err := echoPeriods(lc, codec, periods, perf, queues, recs)
		if err != nil {
			return err
		}
		m["rcnet.echo_"+codec.String()+"_period_ms"] = sample{median(ms), "ms", len(ms)}
	}
	return nil
}

// echoPeriods times Broadcast + CollectReportsInto against agents that
// answer every coordination frame with the same precomputed report.
func echoPeriods(lc localConfig, codec rcnet.Codec, periods int, perf []float64, queues []int, recs []rcnet.IntervalRecord) ([]float64, error) {
	f, err := startFleet(lc.Slices, lc.RAs, 1, codec, func(_ int, c *rcnet.AgentClient) error {
		for {
			m, err := c.Recv(netTimeout)
			if err != nil || m.Type == rcnet.MsgShutdown {
				return err
			}
			if m.Type == rcnet.MsgCoordination {
				if err := c.Report(m.Period, perf, queues, recs); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	z := perfGrid(lc.Slices, lc.RAs)
	ms := make([]float64, 0, periods)
	var runErr error
	for p := 0; p < periods && runErr == nil; p++ {
		t := time.Now()
		if runErr = f.hub.Broadcast(p, z, z); runErr == nil {
			_, runErr = f.hub.CollectReportsInto(p, netTimeout, make([]rcnet.Envelope, lc.RAs), make([]bool, lc.RAs))
		}
		f.hub.FinishPeriod(p)
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return ms, errors.Join(runErr, f.stop())
}

// trainTrace replays System.Train's loop under spans, admits it against the
// real System.Train, and evaluates the trained policy.
func trainTrace(o runOpts, tr *tracer, m map[string]sample) error {
	tc := newTrainWorkload(o.seed, o.sc).cfg
	replay, err := newTrainReplay(tc.coreConfig(0))
	if err != nil {
		return err
	}
	if err := replay.run(tr.track(), tc.Steps); err != nil {
		return err
	}
	t := time.Now()
	sys, err := tc.trainOnce(0)
	wall := time.Since(t)
	if err != nil {
		return err
	}
	if err := admitTrainReplay(replay, sys); err != nil {
		return err
	}
	m["rl.train_steps_per_s"] = sample{float64(tc.Steps) / wall.Seconds(), "1/s", tc.Steps}
	perf, err := evalSystemPerf(sys)
	m["rl.eval_system_perf"] = sample{perf, "perf", evalPeriods * netsim.DefaultExperimentConfig().T}
	return err
}

// sweepTrace primes a store, then runs one sweep on a pool of one — where
// the gaps between Progress callbacks are exact replica times — and one on
// the full pool, and times the checkpoint read + restore a warm start pays.
func sweepTrace(o runOpts, tr *tracer, m map[string]sample) (err error) {
	w := newSweepWorkload(o.seed, o.sc, o.tmpDir)
	defer func() { err = errors.Join(err, w.close()) }()
	if err := w.setup(); err != nil {
		return err
	}
	k := tr.track()
	id := k.begin("scenario.Run", w.replicasPerSweep())
	prev := time.Now()
	var replicaMS []float64
	_, serial, err := w.sweep(1, func(int, int) {
		now := time.Now()
		k.add("scenario.replica", prev, now, 1)
		replicaMS = append(replicaMS, float64(now.Sub(prev).Nanoseconds())/1e6)
		prev = now
	})
	k.end(id)
	if err != nil {
		return err
	}
	t := time.Now()
	_, pooled, err := w.sweep(w.cfg.Parallel, nil)
	wallMS := float64(time.Since(t).Nanoseconds()) / 1e6
	if err != nil {
		return err
	}
	if !bytes.Equal(serial, pooled) {
		return errors.New("traced sweeps disagree between Parallel=1 and the full pool")
	}
	var busy float64
	for _, ms := range replicaMS {
		busy += ms
	}
	m["scenario.replica_ms_p50"] = sample{median(replicaMS), "ms", len(replicaMS)}
	m["scenario.pool_busy_share"] = sample{busy / (wallMS * float64(w.cfg.Parallel)), "share", len(replicaMS)}

	store, err := ckpt.OpenStore(w.dir)
	if err != nil {
		return err
	}
	keys, err := store.Keys()
	if err != nil {
		return err
	}
	if len(keys) != 1 {
		return fmt.Errorf("primed store holds %d checkpoints, want 1", len(keys))
	}
	path := store.Path(keys[0])
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["ckpt.bytes"] = sample{float64(info.Size()), "B", 1}
	var restoreMS []float64
	for i := 0; i < probeBatches; i++ {
		t := time.Now()
		if err := readRestore(k, path); err != nil {
			return err
		}
		restoreMS = append(restoreMS, float64(time.Since(t).Nanoseconds())/1e6)
	}
	m["ckpt.read_restore_ms"] = sample{median(restoreMS), "ms", len(restoreMS)}
	return nil
}

// readRestore is what each warm-started replica's agents cost to bring
// back: parse the checkpoint file, rebuild every agent.
func readRestore(k *track, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	id := k.begin("ckpt.Read", 1)
	c, err := ckpt.Read(f)
	k.end(id)
	_ = f.Close() // read-only; the Read error is the one that matters
	if err != nil {
		return err
	}
	defer k.end(k.begin("ckpt.RestoreAgent", len(c.Agents)))
	for _, st := range c.Agents {
		if _, err := ckpt.RestoreAgent(st); err != nil {
			return err
		}
	}
	return nil
}
