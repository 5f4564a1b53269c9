package scenario

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
)

// Options configures a scenario run.
type Options struct {
	// Replicas is the number of independent seeds per algorithm (default 1).
	Replicas int
	// Parallel bounds the worker pool (default GOMAXPROCS). The summary is
	// bit-identical for any pool size: each replica's outcome depends only
	// on (spec, algorithm, replica index), and aggregation sorts by index.
	Parallel int
	// WarmStart trains each learning algorithm once — at the base replica
	// seed, before the worker pool starts — and deploys its acting policy
	// once, which every replica then shares instead of retraining, turning
	// an R-replica × A-algorithm sweep from R×A trainings into at most A.
	// The paper's deployment model works the same way: agents are trained
	// offline once and then deployed across resource autonomies (Sec. V).
	// Replica environments keep their own seeds, so replicas still differ;
	// what changes is that they share one trained policy, which is why warm
	// start is opt-in rather than the default. Results remain deterministic
	// for any Parallel setting.
	WarmStart bool
	// CheckpointDir, when set with WarmStart, caches the trained
	// checkpoints on disk keyed by (algorithm, hashed compiled system
	// config, seed, train steps), so repeated scenario invocations skip
	// training entirely.
	CheckpointDir string
	// Workers bounds each replica's step workers on the batched engine
	// (default: the scenario's RA count; never more than one per 64-RA
	// chunk; one worker is the serial engine). The summary is the same for
	// any worker count. It composes with Parallel — replicas fan out across
	// the replica pool, RAs fan out inside each replica.
	Workers int
	// Progress, when set, is called after each replica completes.
	Progress func(completed, total int)
	// StreamWindow, when positive, records each replica's periods into a
	// streaming History instead of the default summary one. Both keep
	// bounded memory, but only the summary's SSP is exact: a streaming SSP
	// falls back to the full-run mean when the window is under half the run.
	StreamWindow int
	// HistoryLogDir, when set, writes each replica's full interval/period
	// record to "<dir>/<scenario>-<algorithm>-r<replica>.histlog" — an
	// append-only CRC-checked log replayable via core.ReplayHistoryLogFile,
	// the only lossless record of a replica's bounded-memory run.
	HistoryLogDir string
	// Resume, with HistoryLogDir set, skips every replica whose history log
	// already holds the scenario's full run (shape and period count match):
	// its summary numbers are recomputed from the replayed log — no
	// training, no stepping — bit-identically to a default fresh run. A
	// missing, truncated, or short log reruns that replica from scratch
	// (the rerun truncates the stale log), so an interrupted sweep finishes
	// by re-invoking it with Resume set.
	Resume bool
}

func (o Options) normalized() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// ReplicaResult is the outcome of one (algorithm, replica) run.
type ReplicaResult struct {
	Algorithm string
	Replica   int
	Seed      int64

	// SSP is the steady-state system performance: the mean per-interval
	// system performance over the last half of the run (the Fig. 6a
	// number).
	SSP float64
	// SLAViolationRate is the fraction of (period, slice) pairs whose SLA
	// was missed.
	SLAViolationRate float64
}

// Stats summarizes one metric across replicas.
type Stats struct {
	Mean float64
	P5   float64
	P95  float64
}

// AlgorithmSummary aggregates one algorithm's replicas.
type AlgorithmSummary struct {
	Algorithm    string
	SSP          Stats
	SLAViolation Stats
	Replicas     []ReplicaResult
}

// Summary is the aggregated outcome of a scenario run.
type Summary struct {
	Scenario   string
	Replicas   int
	Algorithms []AlgorithmSummary
	// Trainings counts from-scratch agent trainings performed during the
	// run: replicas × learning algorithms when cold, at most one per
	// learning algorithm with Options.WarmStart, and zero on a checkpoint
	// cache hit.
	Trainings int
	// Resumed counts replicas recovered from their history logs instead of
	// rerun (Options.Resume).
	Resumed int
}

// replicaSeed derives replica r's deterministic seed from the spec seed.
func replicaSeed(base int64, r int) int64 { return base + int64(r)*9973 }

// Run executes replicas × algorithms runs of the scenario across a bounded
// worker pool and aggregates the results. Every replica is deterministic in
// (spec, algorithm, replica index); the summary is identical for any
// Parallel setting.
func Run(spec Spec, opts Options) (*Summary, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()

	var trainings, resumed atomic.Int64
	warm, err := warmCheckpoints(spec, opts, &trainings)
	if err != nil {
		return nil, err
	}

	type job struct {
		algo    string
		replica int
	}
	jobs := make([]job, 0, len(spec.Algorithms)*opts.Replicas)
	for _, algo := range spec.Algorithms {
		for r := 0; r < opts.Replicas; r++ {
			jobs = append(jobs, job{algo: algo, replica: r})
		}
	}

	results := make([]ReplicaResult, len(jobs))
	errs := make([]error, len(jobs))
	jobCh := make(chan int)
	var wg sync.WaitGroup

	// The callback fires inside the mutex so completion counts arrive in
	// order.
	var progressMu sync.Mutex
	completed := 0
	reportProgress := func() {
		progressMu.Lock()
		defer progressMu.Unlock()
		completed++
		if opts.Progress != nil {
			opts.Progress(completed, len(jobs))
		}
	}

	workers := opts.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := jobs[idx]
				if res, ok := tryResumeReplica(spec, j.algo, j.replica, opts); ok {
					resumed.Add(1)
					results[idx] = res
					reportProgress()
					continue
				}
				res, err := runReplica(spec, j.algo, j.replica, warm[j.algo], &trainings, opts, nil)
				results[idx] = res
				errs[idx] = err
				reportProgress()
			}
		}()
	}
	for idx := range jobs {
		jobCh <- idx
	}
	close(jobCh)
	wg.Wait()

	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %s replica %d: %w", spec.Name, jobs[idx].algo, jobs[idx].replica, err)
		}
	}

	summary := &Summary{Scenario: spec.Name, Replicas: opts.Replicas,
		Trainings: int(trainings.Load()), Resumed: int(resumed.Load())}
	for _, algo := range spec.Algorithms {
		var group []ReplicaResult
		for _, res := range results {
			if res.Algorithm == algo {
				group = append(group, res)
			}
		}
		sort.Slice(group, func(a, b int) bool { return group[a].Replica < group[b].Replica })
		ssp := make([]float64, len(group))
		viol := make([]float64, len(group))
		for i, res := range group {
			ssp[i] = res.SSP
			viol[i] = res.SLAViolationRate
		}
		summary.Algorithms = append(summary.Algorithms, AlgorithmSummary{
			Algorithm:    algo,
			SSP:          statsOf(ssp),
			SLAViolation: statsOf(viol),
			Replicas:     group,
		})
	}
	return summary, nil
}

// warmCheckpoints prepares the WarmStart deployment per learning
// algorithm, training (or loading from the checkpoint store) each unique
// (algorithm, compiled config) exactly once and deploying its checkpoint
// once, whichever way it came. It runs serially before the worker pool, so
// results are deterministic for any Parallel setting.
func warmCheckpoints(spec Spec, opts Options, trainings *atomic.Int64) (map[string]*core.Deployment, error) {
	if !opts.WarmStart {
		return nil, nil
	}
	var store *ckpt.Store
	if opts.CheckpointDir != "" {
		var err error
		if store, err = ckpt.OpenStore(opts.CheckpointDir); err != nil {
			return nil, err
		}
	}
	warm := make(map[string]*core.Deployment)
	for _, algoName := range spec.Algorithms {
		algo, err := core.ParseAlgorithm(algoName)
		if err != nil {
			return nil, err
		}
		if !algo.IsLearning() {
			continue
		}
		if _, done := warm[algoName]; done {
			continue
		}
		// The canonical training replica is replica 0; every replica
		// deploys the policy trained at its seed.
		cfg, err := spec.systemConfig(algo, replicaSeed(spec.Seed, 0))
		if err != nil {
			return nil, err
		}
		key, err := core.TrainingKey(cfg)
		if err != nil {
			return nil, err
		}
		var c *ckpt.Checkpoint
		if store != nil {
			if c, err = store.Load(key); err != nil && !errors.Is(err, ckpt.ErrNotFound) {
				return nil, err
			}
		}
		if c == nil {
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			if err := sys.Train(); err != nil {
				return nil, fmt.Errorf("scenario %s: warm-start training %s: %w", spec.Name, algoName, err)
			}
			trainings.Add(1)
			if c, err = sys.Snapshot(ckpt.SnapshotOptions{}); err != nil {
				return nil, err
			}
			if store != nil {
				if err := store.Save(key, c); err != nil {
					return nil, err
				}
			}
		}
		if warm[algoName], err = core.DeployCheckpoint(c); err != nil {
			return nil, err
		}
	}
	return warm, nil
}

// histLogPath is the on-disk location of one replica's history log.
func histLogPath(dir string, spec Spec, algoName string, replica int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-r%d.histlog", spec.Name, algoName, replica))
}

// tryResumeReplica recovers one replica's result from its history log when
// Options.Resume is set and the log holds the scenario's complete run. The
// result comes from replicaResult over the replayed exact history, so a
// resumed replica's ReplicaResult is bit-identical to the summary-mode run
// that wrote the log.
func tryResumeReplica(spec Spec, algoName string, replica int, opts Options) (ReplicaResult, bool) {
	if !opts.Resume || opts.HistoryLogDir == "" {
		return ReplicaResult{}, false
	}
	h, truncated, err := core.ReplayHistoryLogFile(histLogPath(opts.HistoryLogDir, spec, algoName, replica))
	if err != nil || truncated {
		return ReplicaResult{}, false
	}
	I, J, T := len(spec.Slices), spec.NumRAs, spec.T
	if h.NumSlices != I || h.NumRAs != J || h.T != T ||
		h.Periods() != spec.Periods || h.Intervals() != spec.Periods*T {
		return ReplicaResult{}, false
	}
	res, err := replicaResult(spec, algoName, replica, h)
	return res, err == nil
}

// replicaResult summarizes one replica's recorded run: the steady-state
// system performance over its last half and its SLA violation rate.
func replicaResult(spec Spec, algoName string, replica int, h *core.History) (ReplicaResult, error) {
	ssp, err := h.MeanSystemPerf(h.Intervals() / 2)
	if err != nil {
		return ReplicaResult{}, err
	}
	slaRate, err := h.SLASatisfactionRate(0)
	if err != nil {
		return ReplicaResult{}, err
	}
	return ReplicaResult{
		Algorithm:        algoName,
		Replica:          replica,
		Seed:             replicaSeed(spec.Seed, replica),
		SSP:              ssp,
		SLAViolationRate: 1 - slaRate,
	}, nil
}

// runReplica executes one (algorithm, replica) run: it compiles the spec,
// trains if needed (or installs the warm-start deployment), then advances
// period by period on the batched engine at Options.Workers, applying runtime
// events (RA degradation/recovery) at the boundary of the period containing
// each event's interval; slice admission and teardown are compiled into the
// slices' traffic sources. Every period records into the replica's one
// History: h, or when h is nil a summary History (NewSummaryHistory, the two
// sums replicaResult reads) or, with Options.StreamWindow, a streaming one.
// The replica's history log receives the same records through the system's
// recording options. Only a caller that passes an exact h can read the
// replica's records afterwards (the determinism suite and the digest pin do).
func runReplica(spec Spec, algoName string, replica int, warm *core.Deployment, trainings *atomic.Int64, opts Options, h *core.History) (ReplicaResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = spec.NumRAs
	}
	exec := core.NewBatchedExecutor(workers)
	algo, err := core.ParseAlgorithm(algoName)
	if err != nil {
		return ReplicaResult{}, err
	}
	seed := replicaSeed(spec.Seed, replica)
	cfg, err := spec.systemConfig(algo, seed)
	if err != nil {
		return ReplicaResult{}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return ReplicaResult{}, err
	}
	if warm != nil && algo.IsLearning() {
		// Every replica shares the one deployed policy: its ActBatch only
		// reads the weights, and each replica's engine brings its own
		// workspace.
		if err := sys.Deploy(warm); err != nil {
			return ReplicaResult{}, err
		}
	} else {
		if algo.IsLearning() {
			trainings.Add(1)
		}
		if err := sys.Train(); err != nil {
			return ReplicaResult{}, err
		}
	}

	I, J, T := len(spec.Slices), spec.NumRAs, spec.T
	switch {
	case h != nil: // the caller's, to read afterwards
	case opts.StreamWindow > 0:
		h = core.NewStreamingHistory(I, J, T, opts.StreamWindow)
	default:
		h = core.NewSummaryHistory(I, J, T, spec.Periods)
	}
	var hlog *core.HistoryLog
	if opts.HistoryLogDir != "" {
		path := histLogPath(opts.HistoryLogDir, spec, algoName, replica)
		hlog, err = core.CreateHistoryLog(path, I, J, T)
		if err != nil {
			return ReplicaResult{}, err
		}
		defer func() { _ = hlog.Close() }()
		sys.SetRecording(core.RecordOptions{Log: hlog})
	}
	for p := 0; p < spec.Periods; p++ {
		lo, hi := p*spec.T, (p+1)*spec.T
		var due []Event
		for _, ev := range spec.Events {
			if ev.isRuntime() && ev.At >= lo && ev.At < hi {
				due = append(due, ev)
			}
		}
		// Events sharing a period apply in chronological order, not spec
		// order — a degrade at 32 must not be undone by a recover at 38
		// that happens to be listed first.
		sort.SliceStable(due, func(a, b int) bool { return due[a].At < due[b].At })
		for _, ev := range due {
			if err := applyRuntimeEvent(sys, ev); err != nil {
				return ReplicaResult{}, err
			}
		}
		if err := sys.RunPeriodsInto(exec, h, 1); err != nil {
			return ReplicaResult{}, err
		}
	}
	if hlog != nil {
		if err := hlog.Close(); err != nil {
			return ReplicaResult{}, err
		}
	}

	return replicaResult(spec, algoName, replica, h)
}

// applyRuntimeEvent enacts one infrastructure event on a running system.
func applyRuntimeEvent(sys *core.System, ev Event) error {
	switch ev.Kind {
	case EventRADegrade, EventRARecover:
		scale := 1.0
		if ev.Kind == EventRADegrade {
			scale = ev.Factor
		}
		if ev.RA >= 0 {
			return sys.Env(ev.RA).SetCapacityScale(scale)
		}
		for j := 0; j < sys.NumRAs(); j++ {
			if err := sys.Env(j).SetCapacityScale(scale); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("scenario: event %q is not a runtime event", ev.Kind)
	}
}

// statsOf computes mean/p5/p95 from the samples (order-independent).
func statsOf(samples []float64) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Stats{
		Mean: sum / float64(len(s)),
		P5:   quantile(s, 0.05),
		P95:  quantile(s, 0.95),
	}
}

// quantile returns the q-th quantile of sorted samples with linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// WriteSummary renders the summary as an aligned text table.
func WriteSummary(w io.Writer, s *Summary) error {
	if _, err := fmt.Fprintf(w, "scenario %s (%d replica(s) per algorithm)\n", s.Scenario, s.Replicas); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s | %10s %10s %10s | %8s %8s %8s\n",
		"algorithm", "ssp-mean", "ssp-p5", "ssp-p95", "viol-mean", "viol-p5", "viol-p95"); err != nil {
		return err
	}
	for _, a := range s.Algorithms {
		if _, err := fmt.Fprintf(w, "%-14s | %10.2f %10.2f %10.2f | %8.2f %8.2f %8.2f\n",
			a.Algorithm, a.SSP.Mean, a.SSP.P5, a.SSP.P95,
			a.SLAViolation.Mean, a.SLAViolation.P5, a.SLAViolation.P95); err != nil {
			return err
		}
	}
	return nil
}
