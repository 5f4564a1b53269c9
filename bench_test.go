// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sec. VII). Each figure benchmark regenerates the figure's
// data series end to end (training included where the algorithm learns) and
// prints the same rows the paper plots; the paper-vs-measured comparison
// (EXPERIMENTS.md) is not generated yet, see ROADMAP "Paper-scale fidelity
// as a regenerated artifact". Micro-benchmarks at the bottom cover the
// substrate hot paths.
//
// Run with: go test -bench=. -benchmem
package edgeslice_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"edgeslice"
	"edgeslice/internal/admm"
	"edgeslice/internal/experiments"
	"edgeslice/internal/gpusim"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/radio"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/transport"
)

// benchOptions returns the CI-scale experiment settings used by every
// figure benchmark. The paper's 1e6-step TF training maps to 12k pure-Go
// steps (the scaling discussion belongs in EXPERIMENTS.md, not generated
// yet: ROADMAP "Paper-scale fidelity as a regenerated artifact").
func benchOptions() edgeslice.ExperimentOptions {
	o := edgeslice.DefaultExperimentOptions()
	o.TrainSteps = 12000
	o.Periods = 10
	return o
}

// printFigures emits the regenerated tables once per benchmark run.
var printedFigs sync.Map

func printFigure(b *testing.B, figs ...*edgeslice.Figure) {
	b.Helper()
	for _, f := range figs {
		if f == nil {
			continue
		}
		if _, done := printedFigs.LoadOrStore(f.ID, true); done {
			continue
		}
		if err := edgeslice.WriteFigureTable(os.Stdout, f); err != nil {
			b.Fatalf("print %s: %v", f.ID, err)
		}
	}
}

// BenchmarkFig6Convergence regenerates Fig. 6: system/slice performance vs
// time interval for EdgeSlice, EdgeSlice-NT, and TARO.
func BenchmarkFig6Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figA, figB, err := edgeslice.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, figA, figB)
	}
}

// BenchmarkFig7ResourceOrchestration regenerates Fig. 7: normalized radio,
// transport, and computing usage per slice over time under EdgeSlice.
func BenchmarkFig7ResourceOrchestration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := edgeslice.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, figs...)
	}
}

// BenchmarkFig8CDF regenerates Fig. 8: the CDF of slice performance under
// random traffic and the usage-ratio grids of the three algorithms.
func BenchmarkFig8CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cdf, ratios, err := edgeslice.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, cdf)
		printFigure(b, ratios...)
	}
}

// BenchmarkFig9Scalability regenerates Fig. 9: performance per RA vs #RAs
// and performance per slice vs #slices on the trace-driven simulation.
func BenchmarkFig9Scalability(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 16000 // six sim-scale trainings; larger action spaces need more steps
	o.Periods = 6
	for i := 0; i < b.N; i++ {
		figA, figB, err := edgeslice.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, figA, figB)
	}
}

// BenchmarkFig10Training regenerates Fig. 10: system performance vs
// training steps and vs training technique (DDPG/SAC/PPO/TRPO/VPG).
func BenchmarkFig10Training(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 8000
	for i := 0; i < b.N; i++ {
		figA, figB, err := edgeslice.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, figA, figB)
	}
}

// BenchmarkFig11Compatibility regenerates Fig. 11: system performance vs
// the performance-function exponent α and the service-time-metric CDF.
func BenchmarkFig11Compatibility(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 8000
	for i := 0; i < b.N; i++ {
		figA, figB, err := edgeslice.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, figA, figB)
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkEnvStep measures one simulated interval of the prototype
// environment (arrivals, service, reward shaping).
func BenchmarkEnvStep(b *testing.B) {
	env, err := netsim.New(netsim.DefaultExperimentConfig())
	if err != nil {
		b.Fatal(err)
	}
	env.Reset()
	action := []float64{0.7, 0.7, 0.2, 0.05, 0.05, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.StepInterval(action); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDDPGUpdate measures one gradient update of the paper-sized
// (2x128) actor-critic pair with batch 512. One warm-up update runs before
// the timer so the benchmark reports the steady state the training loop
// actually lives in (allocation-free with the nn workspaces).
func BenchmarkDDPGUpdate(b *testing.B) {
	cfg := ddpg.DefaultConfig()
	agent, err := ddpg.New(4, 6, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rngState := []float64{0.1, 0.2, -0.3, -0.4}
	for i := 0; i < cfg.WarmupSteps+1; i++ {
		agent.Observe(rl.Transition{
			State: rngState, Action: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
			Reward: -1, NextState: rngState,
		})
	}
	if err := agent.Update(); err != nil { // size the workspaces
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Update(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseForwardBackward measures one batch-512 forward+backward
// pass through the paper-sized (2x128) MLP — the inner loop of every
// gradient update.
func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := nnTestRNG()
	net := nn.NewMLP(rng, 10,
		nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 6, Act: nn.ActSigmoid},
	)
	x := nn.NewMatrix(512, 10)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	g := nn.NewMatrix(512, 6)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	net.Forward(x) // size the layer workspaces
	net.Backward(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
		net.ZeroGrad()
		net.Backward(g)
	}
}

// BenchmarkPrioritizedSample100k measures one batch-64 prioritized draw
// from a full 100k-capacity buffer — O(log n) per draw on the sum tree
// versus the O(n) prefix scan it replaced.
func BenchmarkPrioritizedSample100k(b *testing.B) {
	const capacity = 100_000
	p, err := rl.NewPrioritizedReplay(capacity, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	rng := nnTestRNG()
	for i := 0; i < capacity; i++ {
		p.Add(rl.Transition{Reward: rng.Float64()})
	}
	idx := make([]int, 64)
	prios := make([]float64, 64)
	for i := range idx {
		idx[i] = rng.Intn(capacity)
		prios[i] = rng.Float64()*2 + 0.01
	}
	if err := p.UpdatePriorities(idx, prios); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := p.Sample(rng, 64, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinatorUpdate measures one ADMM iteration at simulation
// scale (5 slices x 10 RAs).
func BenchmarkCoordinatorUpdate(b *testing.B) {
	umin := make([]float64, 5)
	for i := range umin {
		umin[i] = -50
	}
	coord, err := admm.NewCoordinator(admm.Config{NumSlices: 5, NumRAs: 10, Rho: 1, UminPerSlice: umin})
	if err != nil {
		b.Fatal(err)
	}
	perf := make([][]float64, 5)
	for i := range perf {
		perf[i] = make([]float64, 10)
		for j := range perf[i] {
			perf[i][j] = -float64(i*10 + j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.Update(perf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPRBScheduler measures one LTE subframe of slice-aware PRB
// scheduling with 8 UEs across 2 slices.
func BenchmarkPRBScheduler(b *testing.B) {
	cell, err := radio.NewCell(1, radio.PRBsPer5MHz)
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		imsi := fmt.Sprintf("31015000000%04d", u)
		if err := cell.Attach(radio.S1APAttach{IMSI: imsi, SliceID: u % 2}, 100); err != nil {
			b.Fatal(err)
		}
		if err := cell.AddTraffic(imsi, 1e12); err != nil {
			b.Fatal(err)
		}
	}
	cell.SetSliceShare(0, 0.6)
	cell.SetSliceShare(1, 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.ScheduleSubframe()
	}
}

// BenchmarkTransportReconfig measures a hitless bandwidth reconfiguration
// across the prototype's 6 switches.
func BenchmarkTransportReconfig(b *testing.B) {
	switches := make([]*transport.Switch, 6)
	for i := range switches {
		switches[i] = transport.NewSwitch(i)
	}
	mgr, err := transport.NewManager(switches, 80)
	if err != nil {
		b.Fatal(err)
	}
	alloc := []transport.SliceBandwidth{
		{SliceID: 0, RateMbps: 50, IPPairs: [][2]string{{"10.0.0.1", "10.0.1.1"}}},
		{SliceID: 1, RateMbps: 30, IPPairs: [][2]string{{"10.0.0.2", "10.0.1.2"}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc[0].RateMbps = 30 + float64(i%40)
		alloc[1].RateMbps = 50 - float64(i%40)
		if err := mgr.ApplyHitless(alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSplit measures the kernel-split mechanism on a large
// kernel against the prototype's 51200-thread budget.
func BenchmarkKernelSplit(b *testing.B) {
	k := gpusim.Kernel{Threads: 500_000, Duration: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.SplitKernel(k, gpusim.DefaultThreads/4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActorForward measures one paper-sized (2x128) policy inference,
// the per-interval decision cost of a deployed orchestration agent.
func BenchmarkActorForward(b *testing.B) {
	rng := nnTestRNG()
	net := nn.NewMLP(rng, 4,
		nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 6, Act: nn.ActSigmoid},
	)
	state := []float64{0.1, 0.2, -0.3, -0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward1(state)
	}
}

// BenchmarkScenarioRunner measures the parallel sharded scenario runner's
// replica throughput on the flash-crowd scenario (non-learning algorithm, so
// the cost is pure simulation + aggregation). The serial variant bounds the
// pool at one worker for a speedup baseline.
func BenchmarkScenarioRunner(b *testing.B) {
	spec, err := edgeslice.GetScenario("flash-crowd")
	if err != nil {
		b.Fatal(err)
	}
	spec.Periods = 100 // heavy enough per replica that pool scaling shows
	const replicas = 16
	for _, parallel := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel-%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := edgeslice.RunScenario(spec, edgeslice.ScenarioOptions{
					Replicas: replicas, Parallel: parallel,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(replicas*b.N)/b.Elapsed().Seconds(), "replicas/s")
		})
	}
}

// BenchmarkScenarioWarmStart compares cold replica sweeps (every replica
// retrains its agents) against warm-started ones (each learning algorithm
// trains once, replicas restore deep copies of the checkpoint). With R
// replicas the cold variant pays R trainings, the warm variant one; the
// trainings/run metric makes the difference visible alongside wall clock.
func BenchmarkScenarioWarmStart(b *testing.B) {
	spec, err := edgeslice.GetScenario("flash-crowd")
	if err != nil {
		b.Fatal(err)
	}
	spec.Periods = 2
	spec.Events = nil // keep the deployment run tiny; training dominates
	spec.Algorithms = []string{"edgeslice"}
	spec.TrainSteps = 2000
	const replicas = 8
	for _, mode := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var trainings int
			for i := 0; i < b.N; i++ {
				s, err := edgeslice.RunScenario(spec, edgeslice.ScenarioOptions{
					Replicas: replicas, WarmStart: mode.warm,
				})
				if err != nil {
					b.Fatal(err)
				}
				trainings += s.Trainings
			}
			b.ReportMetric(float64(trainings)/float64(b.N), "trainings/run")
		})
	}
}

// BenchmarkAblations regenerates the design-choice ablations documented in
// DESIGN.md: the MinShare floor, the reward normalization, and the value of
// central coordination.
func BenchmarkAblations(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 8000
	for i := 0; i < b.N; i++ {
		for name, fn := range map[string]func(edgeslice.ExperimentOptions) (*edgeslice.Figure, error){
			"minshare":     experiments.AblationMinShare,
			"perfnorm":     experiments.AblationPerfNorm,
			"coordination": experiments.AblationCoordination,
		} {
			fig, err := fn(o)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			printFigure(b, fig)
		}
	}
}
