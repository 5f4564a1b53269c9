package main

import (
	"bytes"
	"fmt"
	"math"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
)

// evalPeriods is the length of the serial evaluation run that guards
// training quality.
const evalPeriods = 20

// trainConfig is the generated input of train-ddpg: op k trains a fresh
// default system (2 RAs, 2 slices, CI-scale 2x32 actor/critic, batch 64,
// one shared agent) at seed Seed+k.
type trainConfig struct {
	Steps  int   `json:"train_steps"`
	RAs    int   `json:"ras"`
	Hidden int   `json:"hidden"`
	Batch  int   `json:"batch"`
	Seed   int64 `json:"seed"`
	Warmup int   `json:"warmup_ops"`
}

func (tc trainConfig) coreConfig(k int) core.Config {
	cfg := core.DefaultConfig()
	cfg.TrainSteps = tc.Steps
	cfg.Seed = tc.Seed + int64(k)
	return cfg
}

// trainOnce is the op: build a fresh system and train it.
func (tc trainConfig) trainOnce(k int) (*core.System, error) {
	sys, err := core.NewSystem(tc.coreConfig(k))
	if err != nil {
		return nil, err
	}
	return sys, sys.Train()
}

func checkpointBytes(sys *core.System) ([]byte, error) {
	var buf bytes.Buffer
	err := core.SaveCheckpoint(&buf, sys, ckpt.SnapshotOptions{})
	return buf.Bytes(), err
}

// evalSystemPerf runs the trained policy for evalPeriods serial periods and
// returns its mean per-interval system performance.
func evalSystemPerf(sys *core.System) (float64, error) {
	h, err := sys.RunPeriods(evalPeriods)
	if err != nil {
		return 0, err
	}
	return h.MeanSystemPerf(0)
}

type trainWorkload struct {
	cfg   trainConfig
	next  int          // k of the next op
	first []byte       // checkpoint of the k = 0 warm-up training
	last  *core.System // the most recent timed op's system
}

func newTrainWorkload(seed int64, sc scale) *trainWorkload {
	d := core.DefaultConfig()
	return &trainWorkload{cfg: trainConfig{
		Steps: sc.TrainSteps, RAs: d.NumRAs, Hidden: d.DDPG.Hidden, Batch: d.DDPG.BatchSize,
		Seed: seed, Warmup: 1,
	}}
}

func (w *trainWorkload) config() any { return w.cfg }

func (w *trainWorkload) shape() layerShape {
	return layerShape{
		local: localConfig{
			Algo: "edgeslice", RAs: w.cfg.RAs, Slices: 2, T: 10, Hidden: w.cfg.Hidden,
			Engine: core.EngineBatched, Window: streamWindow, Seed: w.cfg.Seed, Warmup: warmupPeriods,
		},
		// Training steps one environment; T steps are one period of it.
		periodsPerOp: w.cfg.Steps / 10, raPeriodsPerOp: w.cfg.Steps / 10,
	}
}

// setup runs the k = 0 training once untimed by the op loop: the first
// training in a process also grows the heap to its working size.
func (w *trainWorkload) setup() error {
	sys, err := w.cfg.trainOnce(0)
	if err != nil {
		return err
	}
	w.first, err = checkpointBytes(sys)
	return err
}

func (w *trainWorkload) op() (int, error) {
	sys, err := w.cfg.trainOnce(w.next)
	w.next++
	w.last = sys
	return 1, err
}

// verify is gate (iii): the k = 0 training run again gives a byte-identical
// checkpoint, and the trained policy's serial evaluation is finite.
func (w *trainWorkload) verify() error {
	sys, err := w.cfg.trainOnce(0)
	if err != nil {
		return err
	}
	again, err := checkpointBytes(sys)
	if err != nil {
		return err
	}
	if !bytes.Equal(w.first, again) {
		return fmt.Errorf("gate (iii): two trainings at seed %d gave different checkpoints", w.cfg.Seed)
	}
	for _, s := range []*core.System{sys, w.last} {
		perf, err := evalSystemPerf(s)
		if err != nil {
			return err
		}
		if math.IsNaN(perf) || math.IsInf(perf, 0) {
			return fmt.Errorf("gate (iii): evaluation performance %v is not finite", perf)
		}
	}
	return nil
}

func (w *trainWorkload) close() error { return nil }
