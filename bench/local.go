package main

import (
	"bytes"
	"fmt"

	"edgeslice/internal/core"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/telemetry"
	"edgeslice/internal/traffic"
)

// warmupPeriods run before the timer so lazily sized workspaces, batch
// plans and monitor series exist when timing starts.
const warmupPeriods = 3

// streamWindow bounds History and monitor memory the way a long daemon run
// is configured (-stream-window).
const streamWindow = 100

// localConfig is the generated input of the local workloads: everything
// derives from the seed, including the traffic sources' rate blocks.
type localConfig struct {
	Algo    string `json:"algorithm"`
	RAs     int    `json:"ras"`
	Slices  int    `json:"slices"`
	T       int    `json:"intervals_per_period"`
	Hidden  int    `json:"actor_hidden"`
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	Window  int    `json:"stream_window"`
	Seed    int64  `json:"seed"`
	Warmup  int    `json:"warmup_periods"`
}

func (lc localConfig) coreConfig() (core.Config, error) {
	algo, err := core.ParseAlgorithm(lc.Algo)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Algo = algo
	cfg.NumRAs = lc.RAs
	cfg.Seed = lc.Seed
	cfg.EnvTemplate.Sources = []traffic.Source{
		traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 11 + 2*lc.Seed},
		traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 23 + 2*lc.Seed},
	}
	return cfg, nil
}

// build makes the system and installs its policy: for a learning algorithm
// one shared seeded DDPG actor of the configured width (untrained weights
// cost the same to evaluate as trained ones), returned so the layer replay
// can call it directly; for a baseline the no-op Train and a nil agent.
func (lc localConfig) build() (*core.System, *ddpg.Agent, error) {
	cfg, err := lc.coreConfig()
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.Algo.IsLearning() {
		return sys, nil, sys.Train()
	}
	dc := ddpg.DefaultConfig()
	dc.Hidden = lc.Hidden
	dc.Seed = lc.Seed
	env := sys.Env(0)
	agent, err := ddpg.New(env.StateDim(), env.ActionDim(), dc)
	if err != nil {
		return nil, nil, err
	}
	return sys, agent, sys.SetAgents([]rl.Agent{agent})
}

func (lc localConfig) newSystem() (*core.System, error) {
	sys, _, err := lc.build()
	return sys, err
}

// engineLogBytes runs periods periods in exact mode under the named engine
// and returns the history-log byte stream — the bit-identical-History
// contract in its most literal form.
func (lc localConfig) engineLogBytes(engine string, periods int) ([]byte, error) {
	sys, err := lc.newSystem()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	hlog, err := core.NewHistoryLog(telemetry.NewLogWriter(&buf), lc.Slices, lc.RAs, lc.T)
	if err != nil {
		return nil, err
	}
	sys.SetRecording(core.RecordOptions{Log: hlog})
	exec, err := core.NewExecutor(engine, lc.Workers)
	if err != nil {
		return nil, err
	}
	_, runErr := sys.RunPeriodsWith(exec, periods)
	if err := exec.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if err := hlog.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return buf.Bytes(), runErr
}

// localWorkload drives one System period by period on the batched engine
// with streaming recording (workloads local-infer-2048 and local-step-2048).
type localWorkload struct {
	cfg     localConfig
	sys     *core.System
	exec    core.Executor
	periods int
}

func newLocalWorkload(algo string, seed int64, sc scale) *localWorkload {
	return &localWorkload{cfg: localConfig{
		Algo: algo, RAs: sc.RAs, Slices: 2, T: 10, Hidden: 128,
		Engine: core.EngineBatched, Workers: 0, Window: streamWindow,
		Seed: seed, Warmup: warmupPeriods,
	}}
}

func (w *localWorkload) config() any { return w.cfg }

func (w *localWorkload) shape() layerShape {
	return layerShape{local: w.cfg, periodsPerOp: 1, raPeriodsPerOp: w.cfg.RAs}
}

func (w *localWorkload) setup() error {
	var err error
	if w.sys, err = w.cfg.newSystem(); err != nil {
		return err
	}
	w.sys.SetRecording(core.RecordOptions{StreamWindow: w.cfg.Window})
	if w.exec, err = core.NewExecutor(w.cfg.Engine, w.cfg.Workers); err != nil {
		return err
	}
	for p := 0; p < w.cfg.Warmup; p++ {
		if _, err := w.op(); err != nil {
			return err
		}
	}
	return nil
}

func (w *localWorkload) op() (int, error) {
	h, err := w.sys.RunPeriodsWith(w.exec, 1)
	if err != nil {
		return 1, err
	}
	if h.Periods() != 1 || h.Intervals() != w.cfg.T {
		return 1, fmt.Errorf("period recorded %d periods / %d intervals, want 1 / %d", h.Periods(), h.Intervals(), w.cfg.T)
	}
	w.periods++
	return 1, nil
}

// verify is gate (i): twin systems at the workload's seed run three periods
// in exact mode under serial and under the measured engine, and their
// history-log bytes must be equal. The measured system itself must have
// completed exactly one ADMM update per op.
func (w *localWorkload) verify() error {
	if got := w.sys.Coordinator().Iterations(); got != w.periods {
		return fmt.Errorf("coordinator ran %d updates for %d periods", got, w.periods)
	}
	if d := w.sys.MonitorDroppedSamples(); d != 0 {
		return fmt.Errorf("monitor rejected %d samples", d)
	}
	want, err := w.cfg.engineLogBytes(core.EngineSerial, warmupPeriods)
	if err != nil {
		return fmt.Errorf("serial twin: %w", err)
	}
	got, err := w.cfg.engineLogBytes(w.cfg.Engine, warmupPeriods)
	if err != nil {
		return fmt.Errorf("%s twin: %w", w.cfg.Engine, err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("gate (i): %s history log differs from serial (%d vs %d bytes)", w.cfg.Engine, len(got), len(want))
	}
	return nil
}

func (w *localWorkload) close() error {
	if w.exec == nil {
		return nil
	}
	return w.exec.Close()
}
