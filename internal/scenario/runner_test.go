package scenario

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"edgeslice/internal/core"
)

// fastSpec is a small, non-learning scenario for runner tests.
func fastSpec() Spec {
	spec := FlashCrowd()
	spec.Periods = 4
	spec.Events = []Event{
		{Kind: EventFlashCrowd, At: 10, Duration: 10, Slice: 0, Factor: 3},
	}
	return spec
}

func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	spec := fastSpec()
	serial, err := Run(spec, Options{Replicas: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, Options{Replicas: 4, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("summary differs across parallelism:\n serial  %+v\n parallel %+v", serial, parallel)
	}
}

func TestRunnerSummaryShape(t *testing.T) {
	spec := fastSpec()
	spec.Algorithms = []string{"taro", "equal"}
	s, err := Run(spec, Options{Replicas: 3, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scenario != spec.Name || s.Replicas != 3 {
		t.Errorf("summary header = %q/%d", s.Scenario, s.Replicas)
	}
	if len(s.Algorithms) != 2 {
		t.Fatalf("got %d algorithm groups, want 2", len(s.Algorithms))
	}
	for _, a := range s.Algorithms {
		if len(a.Replicas) != 3 {
			t.Errorf("%s: %d replicas, want 3", a.Algorithm, len(a.Replicas))
		}
		for r, res := range a.Replicas {
			if res.Replica != r {
				t.Errorf("%s: replica order broken at %d (got %d)", a.Algorithm, r, res.Replica)
			}
			if res.Seed != replicaSeed(spec.Seed, r) {
				t.Errorf("%s replica %d: seed %d, want %d", a.Algorithm, r, res.Seed, replicaSeed(spec.Seed, r))
			}
			if math.IsNaN(res.SSP) {
				t.Errorf("%s replica %d: NaN SSP", a.Algorithm, r)
			}
			if res.SLAViolationRate < 0 || res.SLAViolationRate > 1 {
				t.Errorf("%s replica %d: violation rate %v outside [0,1]", a.Algorithm, r, res.SLAViolationRate)
			}
		}
		if a.SSP.P5 > a.SSP.Mean || a.SSP.Mean > a.SSP.P95 {
			t.Errorf("%s: SSP stats out of order: %+v", a.Algorithm, a.SSP)
		}
	}
}

func TestRunnerStreamsProgress(t *testing.T) {
	spec := fastSpec()
	var mu sync.Mutex
	var calls []int
	_, err := Run(spec, Options{
		Replicas: 3, Parallel: 2,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, done)
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calls, []int{1, 2, 3}) {
		t.Errorf("progress callback saw completed counts %v, want [1 2 3] in order", calls)
	}
}

// requireGated checks slice i's compiled deployment source on every RA:
// rate 0 outside [admit, teardown) (teardown 0: never torn down) and the
// slice's base rate inside it, over the spec's whole horizon.
func requireGated(t *testing.T, spec Spec, i, admit, teardown int) {
	t.Helper()
	cfg, err := spec.systemConfig(core.AlgoTARO, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for j, env := range cfg.EnvPerRA {
		base, err := spec.baseSource(i, j, spec.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for iv := 0; iv < spec.Periods*spec.T; iv++ {
			want := base.Rate(iv)
			if iv < admit || (teardown > 0 && iv >= teardown) {
				want = 0
			}
			if got := env.Sources[i].Rate(iv); got != want {
				t.Fatalf("RA %d slice %d rate at interval %d = %v, want %v", j, i, iv, got, want)
			}
		}
	}
}

func TestRunnerSliceChurnDrivesManager(t *testing.T) {
	spec := SliceChurn()
	spec.Periods = 8 // keep both events inside the horizon
	if _, err := Run(spec, Options{Replicas: 1, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	// Slice 2 is admitted at interval 30 and torn down at interval 70.
	requireGated(t, spec, 2, 30, 70)
	requireGated(t, spec, 0, 0, 0)
}

func TestRunnerTeardownWithoutAdmitFails(t *testing.T) {
	spec := fastSpec()
	spec.Events = []Event{{Kind: EventSliceTeardown, At: 35, Slice: 1}}
	// Slice 1 has no admit event, so it is provisioned at start and the
	// teardown must succeed, gating its traffic to 0 from interval 35.
	if _, err := Run(spec, Options{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	requireGated(t, spec, 1, 0, 35)
}

func TestRunnerRAFailureDegradesPerformance(t *testing.T) {
	healthy := RAFailure()
	healthy.Events = nil
	degraded := RAFailure()
	// Degrade both RAs hard for the whole run so the effect dominates noise.
	degraded.Events = []Event{{Kind: EventRADegrade, At: 0, RA: -1, Factor: 0.25}}

	hs, err := Run(healthy, Options{Replicas: 2, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(degraded, Options{Replicas: 2, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Algorithms[0].SSP.Mean >= hs.Algorithms[0].SSP.Mean {
		t.Errorf("degraded SSP %v not worse than healthy %v",
			ds.Algorithms[0].SSP.Mean, hs.Algorithms[0].SSP.Mean)
	}
}

func TestRunnerFlashCrowdChangesOutcome(t *testing.T) {
	base := fastSpec()
	base.Events = nil
	crowd := fastSpec() // flash crowd inside the measured window

	bs, err := Run(base, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Run(crowd, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Algorithms[0].Replicas[0].SSP == cs.Algorithms[0].Replicas[0].SSP {
		t.Error("flash-crowd event had no effect on SSP")
	}
}

func TestRunnerSamePeriodEventsApplyChronologically(t *testing.T) {
	// A degrade at 2 and a recover at 8 fall in the same period; applied
	// in At order the net effect is nominal capacity, so the run must
	// match an event-free run exactly. Listing the recover first would,
	// under spec-order application, leave the RAs degraded.
	withEvents := RAFailure()
	withEvents.Periods = 4
	withEvents.Events = []Event{
		{Kind: EventRARecover, At: 8, RA: -1},
		{Kind: EventRADegrade, At: 2, RA: -1, Factor: 0.1},
	}
	clean := RAFailure()
	clean.Periods = 4
	clean.Events = nil

	a, err := Run(withEvents, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(clean, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Algorithms[0].Replicas[0].SSP != b.Algorithms[0].Replicas[0].SSP {
		t.Errorf("degrade+recover in one period changed the run: %v vs %v",
			a.Algorithms[0].Replicas[0].SSP, b.Algorithms[0].Replicas[0].SSP)
	}
}

func TestValidateRejectsLifecycleConflicts(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"teardown before admit", []Event{
			{Kind: EventSliceAdmit, At: 30, Slice: 0},
			{Kind: EventSliceTeardown, At: 10, Slice: 0},
		}},
		{"teardown at interval zero", []Event{
			{Kind: EventSliceTeardown, At: 0, Slice: 0},
		}},
		{"duplicate admit", []Event{
			{Kind: EventSliceAdmit, At: 10, Slice: 0},
			{Kind: EventSliceAdmit, At: 20, Slice: 0},
		}},
		{"duplicate teardown", []Event{
			{Kind: EventSliceTeardown, At: 10, Slice: 0},
			{Kind: EventSliceTeardown, At: 20, Slice: 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fastSpec()
			spec.Events = tc.events
			if err := spec.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestTrainingEnvsUseBaseSources(t *testing.T) {
	// Deployment events are anchored to absolute run intervals, which have
	// no meaning during offline training: the compiled training env must
	// carry the unmodulated base sources.
	spec := SliceChurn()
	cfg, err := spec.systemConfig(core.AlgoEdgeSlice, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TrainEnv == nil {
		t.Fatal("TrainEnv is nil; the agent would train on the deployment sources")
	}
	const churned = 2 // slice with admit/teardown events
	deploySrc := cfg.EnvPerRA[0].Sources[churned]
	trainSrc := cfg.TrainEnv.Sources[churned]
	if deploySrc.Rate(0) != 0 {
		t.Errorf("deployment source rate %v before admission, want 0", deploySrc.Rate(0))
	}
	if trainSrc.Rate(0) == 0 {
		t.Error("training source is gated to 0 at interval 0; must be the base source")
	}
}

func TestRunnerRejectsInvalidSpec(t *testing.T) {
	spec := fastSpec()
	spec.NumRAs = 0
	if _, err := Run(spec, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRunnerLearningAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := fastSpec()
	spec.Periods = 2
	spec.Algorithms = []string{"edgeslice"}
	spec.TrainSteps = 600
	s, err := Run(spec, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Algorithms) != 1 || len(s.Algorithms[0].Replicas) != 1 {
		t.Fatalf("unexpected summary shape: %+v", s)
	}
}

func TestStatsOf(t *testing.T) {
	s := statsOf([]float64{4, 1, 3, 2, 5})
	if s.Mean != 3 {
		t.Errorf("mean = %v, want 3", s.Mean)
	}
	if math.Abs(s.P5-1.2) > 1e-12 || math.Abs(s.P95-4.8) > 1e-12 {
		t.Errorf("p5/p95 = %v/%v, want 1.2/4.8", s.P5, s.P95)
	}
	one := statsOf([]float64{7})
	if one.Mean != 7 || one.P5 != 7 || one.P95 != 7 {
		t.Errorf("single-sample stats = %+v", one)
	}
}

func TestSystemConfigCompiles(t *testing.T) {
	for _, name := range List() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.systemConfig(core.AlgoTARO, spec.Seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: compiled config invalid: %v", name, err)
		}
		if len(cfg.EnvPerRA) != spec.NumRAs {
			t.Errorf("%s: %d per-RA envs, want %d", name, len(cfg.EnvPerRA), spec.NumRAs)
		}
	}
}

// TestRunnerStreamingAndHistoryLog runs the same scenario in exact and
// streaming mode: with a window covering the steady-state half the summary
// is bit-identical, and the per-replica history logs replay into full
// histories of the right shape.
func TestRunnerStreamingAndHistoryLog(t *testing.T) {
	spec := fastSpec() // 4 periods x T=10 = 40 intervals; half = 20
	dir := t.TempDir()

	summary, err := Run(spec, Options{Replicas: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Run(spec, Options{
		Replicas: 2, Parallel: 1,
		StreamWindow:  32, // >= 20, so the steady-state tail mean stays exact
		HistoryLogDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(summary, streamed) {
		t.Errorf("summary differs between summary and streaming mode:\n summary %+v\n stream  %+v", summary, streamed)
	}

	for r := 0; r < 2; r++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-r%d.histlog", spec.Name, spec.Algorithms[0], r))
		h, truncated, err := core.ReplayHistoryLogFile(path)
		if err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
		if truncated {
			t.Errorf("%s reported truncated", path)
		}
		if h.Intervals() != spec.Periods*spec.T || h.Periods() != spec.Periods {
			t.Errorf("%s replayed %d intervals / %d periods, want %d / %d",
				path, h.Intervals(), h.Periods(), spec.Periods*spec.T, spec.Periods)
		}
	}
}

// TestRunSummaryMatchesExactReplicas: Run records every replica into a
// summary History, and each ReplicaResult of its Summary must equal
// replicaResult over an exact History of the same replica, for every
// built-in scenario at its own, 100 and 101 periods.
func TestRunSummaryMatchesExactReplicas(t *testing.T) {
	for _, name := range List() {
		base, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, periods := range []int{base.Periods, 100, 101} {
			spec := base
			spec.Periods = periods
			sum, err := Run(spec, Options{Replicas: 2, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			for a, algo := range spec.Algorithms {
				for r, got := range sum.Algorithms[a].Replicas {
					var trainings atomic.Int64
					h := exactHistory(spec)
					if _, err := runReplica(spec, algo, r, nil, &trainings, Options{}, h); err != nil {
						t.Fatal(err)
					}
					if want, err := replicaResult(spec, algo, r, h); err != nil || got != want {
						t.Errorf("%s, %d periods, %s replica %d: Run's %+v, exact History's %+v (%v)",
							name, periods, algo, r, got, want, err)
					}
				}
			}
		}
	}
}
