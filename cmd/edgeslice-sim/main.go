// Command edgeslice-sim runs an end-to-end EdgeSlice orchestration
// simulation. It has two modes:
//
// Classic mode trains the orchestration agents (for learning algorithms),
// executes Algorithm 1 for the requested number of periods, and prints
// per-period performance, SLA status, and the steady-state summary:
//
//	edgeslice-sim [-algo edgeslice|edgeslice-nt|taro|equal] [-periods 10]
//	              [-ras 2] [-train 12000] [-seed 1] [-workers 1]
//
// Both modes run Algorithm 1 on the in-process batched engine
// (core.NewBatchedExecutor): its -workers share chunks of 64 consecutive
// RAs, each chunk stepped through a whole period with one forward pass per
// policy group per interval. One worker (the default) is the serial engine.
// Results are bit-identical for any worker count; only wall-clock changes.
//
// Scenario mode runs a declarative workload scenario — a built-in name or a
// JSON spec file — through the parallel sharded replica runner and prints
// the aggregated summary (mean/p5/p95 of steady-state system performance
// and SLA-violation rate per algorithm):
//
//	edgeslice-sim -list-scenarios
//	edgeslice-sim -scenario flash-crowd [-replicas 4] [-parallel 4] [-seed 1]
//	edgeslice-sim -scenario my-workload.json -replicas 8
//
// In scenario mode, -warm-start trains each learning algorithm once and
// clones the trained policy into every replica instead of retraining per
// replica; -ckpt-dir additionally caches the trained checkpoints on disk
// (keyed by core.TrainingKey: algorithm, a hash of the training inputs,
// seed, and train steps) so repeated invocations skip training entirely.
// The RA count is not a training input, so one checkpoint serves every RA
// count. Setting -ckpt-dir implies -warm-start:
//
//	edgeslice-sim -scenario flash-crowd -replicas 8 -warm-start
//	edgeslice-sim -scenario flash-crowd -replicas 8 -ckpt-dir ~/.cache/edgeslice
//
// Telemetry (both modes, all opt-in; defaults leave output and memory
// behaviour untouched):
//
//	-metrics-addr 127.0.0.1:9090   serve /metrics, /healthz and /debug/pprof
//	-stream-window 1024            classic: bounded-memory streaming history
//	-history run.histlog           classic: append-only on-disk history log
//	-history logs/                 scenario: one log per replica in this dir
//
// With -stream-window the classic per-period table is unavailable (only
// bounded summaries are retained), so a steady-state summary is printed
// instead. Scenario replicas always keep O(1) memory, so scenario mode
// refuses the flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"edgeslice/internal/core"
	"edgeslice/internal/scenario"
	"edgeslice/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "edgeslice-sim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algoName = flag.String("algo", "edgeslice", "algorithm: edgeslice, edgeslice-nt, taro, equal")
		periods  = flag.Int("periods", 10, "orchestration periods to run")
		ras      = flag.Int("ras", 2, "number of resource autonomies")
		train    = flag.Int("train", 12000, "agent training steps")
		seed     = flag.Int64("seed", 1, "random seed")

		workers = flag.Int("workers", 1, "step workers, at most one per 64-RA chunk; results are identical for any count (0 = one per RA in scenario mode, GOMAXPROCS in classic mode)")

		scenarioName = flag.String("scenario", "", "run a named built-in scenario or a JSON spec file")
		listScen     = flag.Bool("list-scenarios", false, "list built-in scenarios and exit")
		replicas     = flag.Int("replicas", 1, "scenario replicas (seeds) per algorithm")
		parallel     = flag.Int("parallel", 0, "scenario worker pool size (0 = GOMAXPROCS)")
		warmStart    = flag.Bool("warm-start", false, "train each learning algorithm once and clone the policy into every replica")
		ckptDir      = flag.String("ckpt-dir", "", "checkpoint cache directory (implies -warm-start)")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		streamWindow = flag.Int("stream-window", 0, "classic: bounded-memory streaming history with this ring window (0 = exact in-memory history)")
		historyPath  = flag.String("history", "", "on-disk history log: a file in classic mode, a directory (one log per replica) in scenario mode")
		resume       = flag.Bool("resume", false, "scenario: skip replicas whose -history log already holds the full run (recompute their summaries from the log)")
	)
	flag.Parse()

	if *listScen {
		return listScenarios(os.Stdout)
	}
	if *scenarioName != "" {
		// Scenarios define their own topology, schedule, algorithms, and
		// training budget; explicitly set classic-mode flags would be
		// silently ignored, so reject them instead.
		for _, name := range []string{"algo", "periods", "ras", "train"} {
			if flagWasSet(name) {
				return fmt.Errorf("-%s applies to classic mode only; scenarios declare it in the spec", name)
			}
		}
		if flagWasSet("stream-window") {
			return fmt.Errorf("-stream-window applies to classic mode only; a scenario replica keeps O(1) memory already")
		}
		if *resume && *historyPath == "" {
			return fmt.Errorf("-resume needs -history: the logs are what the replicas resume from")
		}
		return runScenario(*scenarioName, *replicas, *parallel, *seed, flagWasSet("seed"),
			*warmStart || *ckptDir != "", *ckptDir, *workers,
			*metricsAddr, *historyPath, *resume)
	}
	for _, name := range []string{"replicas", "parallel", "warm-start", "ckpt-dir", "resume"} {
		if flagWasSet(name) {
			return fmt.Errorf("-%s applies to scenario mode only; pass -scenario to use the replica runner", name)
		}
	}
	return runClassic(*algoName, *periods, *ras, *train, *seed, *workers,
		*metricsAddr, *streamWindow, *historyPath)
}

// flagWasSet reports whether a flag was given explicitly (e.g. scenario
// specs carry their own seed; an explicit -seed overrides it).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func listScenarios(w *os.File) error {
	for _, name := range scenario.List() {
		spec, err := scenario.Get(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %s\n", name, spec.Description)
	}
	return nil
}

// loadScenario resolves a built-in name or a JSON spec path.
func loadScenario(nameOrFile string) (scenario.Spec, error) {
	if !strings.HasSuffix(nameOrFile, ".json") {
		return scenario.Get(nameOrFile)
	}
	f, err := os.Open(nameOrFile)
	if err != nil {
		return scenario.Spec{}, err
	}
	// Read-only handle: decode errors surface from DecodeJSON; the close
	// error is dropped deliberately.
	defer func() { _ = f.Close() }()
	return scenario.DecodeJSON(f)
}

func runScenario(nameOrFile string, replicas, parallel int, seed int64, seedSet, warmStart bool, ckptDir string, workers int, metricsAddr string, historyDir string, resume bool) error {
	spec, err := loadScenario(nameOrFile)
	if err != nil {
		return err
	}
	if seedSet {
		spec.Seed = seed
	}
	fmt.Printf("scenario %s: %d RA(s), %d slice(s), %d period(s) x %d interval(s), algorithms %v\n",
		spec.Name, spec.NumRAs, len(spec.Slices), spec.Periods, spec.T, spec.Algorithms)
	var replicasDone atomic.Uint64
	opts := scenario.Options{
		Replicas:      replicas,
		Parallel:      parallel,
		Workers:       workers,
		WarmStart:     warmStart,
		CheckpointDir: ckptDir,
		HistoryLogDir: historyDir,
		Resume:        resume,
		Progress: func(done, total int) {
			replicasDone.Store(uint64(done))
			fmt.Fprintf(os.Stderr, "replica %d/%d done\n", done, total)
		},
	}
	if metricsAddr != "" {
		totalRuns := uint64(len(spec.Algorithms) * replicas)
		reg := telemetry.NewRegistry()
		reg.CounterFunc("edgeslice_scenario_replicas_done_total",
			"Scenario replica runs completed.", replicasDone.Load)
		reg.GaugeFunc("edgeslice_scenario_replicas",
			"Scenario replica runs scheduled (algorithms x replicas).",
			func() float64 { return float64(totalRuns) })
		srv, err := telemetry.StartServer(metricsAddr, reg, func() any {
			return map[string]any{
				"scenario":      spec.Name,
				"algorithms":    spec.Algorithms,
				"replicas_done": replicasDone.Load(),
				"replicas":      totalRuns,
			}
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
	}
	summary, err := scenario.Run(spec, opts)
	if err != nil {
		return err
	}
	fmt.Println()
	if summary.Resumed > 0 {
		fmt.Printf("resumed %d replica(s) from history logs\n", summary.Resumed)
	}
	return scenario.WriteSummary(os.Stdout, summary)
}

func runClassic(algoName string, periods, ras, train int, seed int64, workers int, metricsAddr string, streamWindow int, historyPath string) error {
	algo, err := core.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	exec := core.NewBatchedExecutor(workers)
	cfg := core.DefaultConfig()
	cfg.Algo = algo
	cfg.NumRAs = ras
	cfg.TrainSteps = train
	cfg.Seed = seed

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	rec := core.RecordOptions{StreamWindow: streamWindow}
	if historyPath != "" {
		hlog, err := core.CreateHistoryLog(historyPath, cfg.EnvTemplate.NumSlices, ras, cfg.EnvTemplate.T)
		if err != nil {
			return err
		}
		defer func() { _ = hlog.Close() }()
		rec.Log = hlog
	}
	sys.SetRecording(rec)
	if metricsAddr != "" {
		reg := telemetry.NewRegistry()
		sys.EnableTelemetry(reg)
		exec.EnableTelemetry(reg)
		srv, err := telemetry.StartServer(metricsAddr, reg, func() any { return sys.Health() })
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
	}
	if algo.IsLearning() {
		fmt.Printf("training %s agents (%d steps)...\n", algo, train)
	}
	if err := sys.Train(); err != nil {
		return err
	}
	h, err := sys.RunPeriodsWith(exec, periods)
	if err != nil {
		return err
	}

	fmt.Printf("\n%s: %d RAs, %d slices, %d periods x %d intervals\n",
		algo, ras, cfg.EnvTemplate.NumSlices, periods, cfg.EnvTemplate.T)
	return core.WriteReport(os.Stdout, h)
}
