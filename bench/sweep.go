package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"

	"edgeslice/internal/scenario"
)

// sweepConfig is the generated input of sweep-warm.
type sweepConfig struct {
	Scenario   string   `json:"scenario"`
	Algorithms []string `json:"algorithms"`
	Periods    int      `json:"periods"`
	TrainSteps int      `json:"train_steps"`
	Replicas   int      `json:"replicas_per_algorithm"`
	Parallel   int      `json:"parallel"`
	WarmStart  bool     `json:"warm_start"`
	Seed       int64    `json:"seed"`
	Warmup     string   `json:"warmup"`
}

func (sc sweepConfig) spec() (scenario.Spec, error) {
	spec, err := scenario.Get(sc.Scenario)
	if err != nil {
		return spec, err
	}
	spec.Algorithms = sc.Algorithms
	spec.Periods = sc.Periods
	spec.TrainSteps = sc.TrainSteps
	spec.Seed = sc.Seed
	return spec, nil
}

// sweepWorkload runs warm-started replica sweeps from a checkpoint store
// primed in set-up; one op is one replica.
type sweepWorkload struct {
	cfg       sweepConfig
	spec      scenario.Spec
	tmpRoot   string
	dir       string
	summaries [][]byte
}

func newSweepWorkload(seed int64, sc scale, tmpRoot string) *sweepWorkload {
	return &sweepWorkload{tmpRoot: tmpRoot, cfg: sweepConfig{
		Scenario: "heterogeneous-mix", Algorithms: []string{"edgeslice", "taro", "equal"},
		Periods: sc.SweepPeriods, TrainSteps: sc.TrainSteps, Replicas: sc.SweepReplicas,
		Parallel: runtime.GOMAXPROCS(0), WarmStart: true, Seed: seed,
		Warmup: "one sweep that trains and primes the checkpoint store",
	}}
}

func (w *sweepWorkload) config() any { return w.cfg }

func (w *sweepWorkload) shape() layerShape {
	return layerShape{
		local: localConfig{
			Algo: "edgeslice", RAs: w.spec.NumRAs, Slices: 2, T: 10, Hidden: 32,
			Engine: "batched", Window: streamWindow, Seed: w.cfg.Seed, Warmup: warmupPeriods,
		},
		periodsPerOp: w.cfg.Periods, raPeriodsPerOp: w.cfg.Periods * w.spec.NumRAs,
	}
}

func (w *sweepWorkload) replicasPerSweep() int { return len(w.cfg.Algorithms) * w.cfg.Replicas }

// sweep runs the scenario once and returns its rendered summary.
func (w *sweepWorkload) sweep(parallel int, progress func(completed, total int)) (*scenario.Summary, []byte, error) {
	sum, err := scenario.Run(w.spec, scenario.Options{
		Replicas: w.cfg.Replicas, Parallel: parallel, WarmStart: true,
		CheckpointDir: w.dir, Progress: progress,
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := scenario.WriteSummary(&buf, sum); err != nil {
		return nil, nil, err
	}
	return sum, buf.Bytes(), nil
}

// setup primes the store: the first sweep finds it empty and trains once,
// so the one training is paid in setup_s and never in the timed part.
func (w *sweepWorkload) setup() error {
	var err error
	if w.spec, err = w.cfg.spec(); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.tmpRoot, "sweep-"); err != nil {
		return err
	}
	sum, out, err := w.sweep(w.cfg.Parallel, nil)
	if err != nil {
		return err
	}
	if sum.Trainings != 1 {
		return fmt.Errorf("priming sweep trained %d times, want 1", sum.Trainings)
	}
	w.summaries = append(w.summaries, out)
	return nil
}

func (w *sweepWorkload) op() (int, error) {
	n := w.replicasPerSweep()
	sum, out, err := w.sweep(w.cfg.Parallel, nil)
	if err != nil {
		return n, err
	}
	if sum.Trainings != 0 {
		return n, fmt.Errorf("timed sweep trained %d times; the store should have served it", sum.Trainings)
	}
	w.summaries = append(w.summaries, out)
	return n, nil
}

// verify is gate (iv): every sweep rendered the same summary, and so does a
// sweep on a pool of one.
func (w *sweepWorkload) verify() error {
	_, serial, err := w.sweep(1, nil)
	if err != nil {
		return err
	}
	for i, s := range w.summaries {
		if !bytes.Equal(s, serial) {
			return fmt.Errorf("gate (iv): sweep %d's summary differs from the Parallel=1 summary", i)
		}
	}
	return nil
}

func (w *sweepWorkload) close() error {
	if w.dir == "" {
		return nil
	}
	return os.RemoveAll(w.dir)
}
