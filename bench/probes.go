package main

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"edgeslice/internal/admm"
	"edgeslice/internal/baseline"
	"edgeslice/internal/core"
	"edgeslice/internal/monitor"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/telemetry"
)

// probeBatches splits a probe's iterations so its time is the median of
// batch means: one preempted batch does not move the reported number.
const probeBatches = 5

// timeCalls calls fn iters times and returns the time per call in
// nanoseconds and the heap allocations per call.
func timeCalls(iters int, fn func()) (ns, allocs float64) {
	per := max(iters/probeBatches, 1)
	fn() // first call sizes lazily grown buffers
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	means := make([]float64, probeBatches)
	for b := range means {
		t := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means[b] = float64(time.Since(t).Nanoseconds()) / float64(per)
	}
	runtime.ReadMemStats(&m1)
	return median(means), float64(m1.Mallocs-m0.Mallocs) / float64(per*probeBatches)
}

// layerProbes times single exported calls of each layer at the workload's
// shape (J RAs, I slices, T intervals, actor width) and adds them to m.
func layerProbes(lc localConfig, sc scale, dir string, m map[string]sample) error {
	sys, err := lc.newSystem()
	if err != nil {
		return err
	}
	I, J, T := lc.Slices, lc.RAs, lc.T
	n := sc.ProbeIters
	env := func(c int) *netsim.RAEnv { return sys.Env(c % J) } // cycle the RAs: the working set is the whole system
	dim, actDim := sys.Env(0).StateDim(), sys.Env(0).ActionDim()
	put := func(name string, v float64, unit string, count int) { m[name] = sample{v, unit, count} }
	var probeSink float64 // consumes probe results so the calls that produce them cannot be dropped

	// netsim
	buf := make([]float64, 0, dim)
	c := 0
	ns, _ := timeCalls(n, func() { buf = env(c).StateInto(buf[:0]); c++ })
	put("netsim.state_ns", ns, "ns", n)
	equal, err := baseline.EqualShare(I, netsim.NumResources)
	if err != nil {
		return err
	}
	var stepErr error
	ns, allocs := timeCalls(n, func() {
		res, err := env(c).StepInterval(equal)
		if err != nil {
			stepErr = err
		}
		probeSink += res.Violation
		c++
	})
	if stepErr != nil {
		return stepErr
	}
	put("netsim.step_ns", ns, "ns", n)
	put("netsim.step_allocs", allocs, "count", n)

	// baseline
	ns, _ = timeCalls(n, func() {
		a, err := baseline.TARO(env(c).QueueLens(), netsim.NumResources)
		if err != nil {
			stepErr = err
		}
		probeSink += a[0]
		c++
	})
	if stepErr != nil {
		return stepErr
	}
	put("baseline.taro_ns", ns, "ns", n)

	// nn and rl inference: one actor of the workload's width over J rows.
	dc := ddpg.DefaultConfig()
	dc.Hidden, dc.Seed = lc.Hidden, lc.Seed
	agent, err := ddpg.New(dim, actDim, dc)
	if err != nil {
		return err
	}
	states := nn.NewMatrix(J, dim)
	for j := 0; j < J; j++ {
		sys.Env(j).StateInto(states.Data[j*dim : j*dim : (j+1)*dim])
	}
	var ws nn.Workspace
	wide := max(n/(10*J), 5)
	ns, allocs = timeCalls(wide, func() { ws.Reset(); probeSink += agent.Actor().ForwardBatch(states, &ws).Data[0] })
	put("nn.forward_batch_ns_per_row", ns/float64(J), "ns", wide)
	put("nn.forward_batch_allocs", allocs, "count", wide)
	ba := rl.AsBatchActor(agent)
	ns, _ = timeCalls(wide, func() { ws.Reset(); probeSink += ba.ActBatch(states, &ws).Data[0] })
	put("rl.act_batch_ns_per_row", ns/float64(J), "ns", wide)
	ns, _ = timeCalls(n/10, func() { probeSink += agent.Act(states.Row(c % J))[0]; c++ })
	put("rl.act_ns", ns, "ns", n/10)

	// nn training step: batch-64 2x32 forward + backward, the CI-scale shape.
	ci := core.DefaultConfig().DDPG
	rng := rand.New(rand.NewSource(lc.Seed))
	net := nn.NewMLP(rng, dim,
		nn.LayerSpec{Out: ci.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: ci.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: actDim, Act: nn.ActSigmoid})
	x, grad := nn.NewMatrix(ci.BatchSize, dim), nn.NewMatrix(ci.BatchSize, actDim)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	for i := range grad.Data {
		grad.Data[i] = rng.Float64() - 0.5
	}
	ns, _ = timeCalls(n/10, func() { net.Forward(x); net.ZeroGrad(); net.Backward(grad) })
	put("nn.fwd_bwd_us", ns/1e3, "us", n/10)

	// rl training calls on a warm CI-scale agent.
	ci.Seed = lc.Seed
	learner, err := ddpg.New(dim, actDim, ci)
	if err != nil {
		return err
	}
	tr := rl.Transition{State: states.Row(0), Action: equal, Reward: -1, NextState: states.Row(J - 1)}
	for i := 0; i < ci.WarmupSteps+ci.BatchSize; i++ {
		learner.Observe(tr)
	}
	ns, _ = timeCalls(n, func() { learner.Observe(tr) })
	put("rl.observe_ns", ns, "ns", n)
	ns, _ = timeCalls(n/100, func() {
		if err := learner.Update(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	put("rl.update_us", ns/1e3, "us", n/100)

	// admm
	coord, err := admm.NewCoordinator(admm.Config{NumSlices: I, NumRAs: J, Rho: 1, UminPerSlice: make([]float64, I)})
	if err != nil {
		return err
	}
	perf := perfGrid(I, J)
	for i := range perf {
		for j := range perf[i] {
			perf[i][j] = -20 * rng.Float64()
		}
	}
	iters := max(n/J, 20)
	ns, allocs = timeCalls(iters, func() {
		if err := coord.Update(perf); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	put("admm.update_us", ns/1e3, "us", iters)
	put("admm.update_allocs", allocs, "count", iters)

	// monitor: windowed, one series per (RA, slice, kind) as in a run.
	mon := monitor.New()
	mon.SetWindow(lc.Window)
	names := make([]string, 0, 2*I*J)
	for j := 0; j < J; j++ {
		for i := 0; i < I; i++ {
			names = append(names, monitor.MetricName("perf", j, i), monitor.MetricName("queue", j, i))
		}
	}
	ns, _ = timeCalls(10*n, func() {
		if err := mon.Record(names[c%len(names)], c/len(names), 1); err != nil {
			stepErr = err
		}
		c++
	})
	if stepErr != nil {
		return stepErr
	}
	put("monitor.record_ns", ns, "ns", 10*n)

	// telemetry: one interval-sized record (kind byte + sysPerf + slicePerf + usage + violation).
	lw := telemetry.NewLogWriter(io.Discard)
	payload := make([]byte, 1+8*(2+I+I*netsim.NumResources))
	ns, _ = timeCalls(n, func() {
		if err := lw.Append(payload); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	put("telemetry.log_append_ns", ns, "ns", n)

	// core recording: a period's worth of History adds, then the same into
	// an on-disk log, then the replay of that log.
	sums := newIntervalSums(I)
	sla := make([]bool, I)
	h := core.NewStreamingHistory(I, J, T, lc.Window)
	iters = max(n/T, 20)
	ns, _ = timeCalls(iters, func() {
		for t := 0; t < T; t++ {
			h.AddInterval(sums.sysPerf, sums.slicePerf, sums.usage, sums.violation)
		}
		h.AddPeriod(perf, sla, 0, 0)
	})
	put("core.history_add_us", ns/1e3, "us", iters)
	path := filepath.Join(dir, "probe.histlog")
	hlog, err := core.CreateHistoryLog(path, I, J, T)
	if err != nil {
		return err
	}
	logged := min(iters, 200) // a period record is I*J floats: keep the file a few MB at 2048 RAs
	ns, _ = timeCalls(logged, func() {
		for t := 0; t < T; t++ {
			if err := hlog.LogInterval(sums.sysPerf, sums.slicePerf, sums.usage, sums.violation); err != nil {
				stepErr = err
			}
		}
		if err := hlog.LogPeriod(perf, sla, 0, 0); err != nil {
			stepErr = err
		}
	})
	if err := hlog.Close(); err != nil {
		return err
	}
	if stepErr != nil {
		return stepErr
	}
	put("core.histlog_append_us", ns/1e3, "us", logged)
	ns, _ = timeCalls(probeBatches, func() {
		if _, truncated, err := core.ReplayHistoryLogFile(path); err != nil || truncated {
			stepErr = errors.Join(err, errors.New("probe history log did not replay whole"))
		}
	})
	if stepErr != nil {
		return stepErr
	}
	put("core.histlog_replay_ms", ns/1e6, "ms", probeBatches)
	if math.IsNaN(probeSink) {
		return errors.New("probe results are not numbers")
	}
	return os.Remove(path)
}
