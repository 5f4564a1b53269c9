package edgeslice_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"edgeslice"
)

func TestFacadeTAROSystem(t *testing.T) {
	cfg := edgeslice.DefaultConfig()
	cfg.Algo = edgeslice.AlgoTARO
	sys, err := edgeslice.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriods(3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Intervals() != 3*cfg.EnvTemplate.T {
		t.Errorf("intervals = %d", h.Intervals())
	}
}

func TestFacadeTrainSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := edgeslice.DefaultConfig()
	cfg.TrainSteps = 800
	sys, err := edgeslice.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := edgeslice.SaveAgent(&buf, sys, 0); err != nil {
		t.Fatal(err)
	}
	agent, err := edgeslice.LoadAgent(&buf, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	out := agent.Act([]float64{0.1, 0.2, -0.3, -0.4})
	if len(out) != 6 {
		t.Errorf("loaded agent action dim %d, want 6", len(out))
	}
}

func TestFacadeEnvAndTrace(t *testing.T) {
	envCfg := edgeslice.DefaultEnvConfig()
	env, err := edgeslice.NewEnv(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	state := env.Reset()
	if len(state) != env.StateDim() {
		t.Errorf("state dim mismatch: %d vs %d", len(state), env.StateDim())
	}
	trace, err := edgeslice.SynthesizeTrace(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if trace.NumAreas() != 4 {
		t.Errorf("trace areas = %d", trace.NumAreas())
	}
}

func TestFacadeDistributed(t *testing.T) {
	cfg := edgeslice.DefaultConfig()
	cfg.NumRAs = 1
	sys, err := edgeslice.NewSystem(cfg) // shape and coordinator; the RA runs remotely
	if err != nil {
		t.Fatal(err)
	}
	hub, err := edgeslice.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, cfg.NumRAs)
	if err != nil {
		t.Fatal(err)
	}
	exec := edgeslice.NewRemoteExecutor(hub, 5*time.Second)
	defer func() { _ = exec.Close() }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		envCfg := edgeslice.DefaultEnvConfig()
		envCfg.TrainCoordRandom = false
		env, err := edgeslice.NewEnv(envCfg)
		if err != nil {
			t.Errorf("env: %v", err)
			return
		}
		env.Reset()
		client, err := edgeslice.DialAgent(hub.Addr(), 0, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer client.Close()
		policy := stubAgent{dim: env.ActionDim()}
		if err := edgeslice.RunAgent(client, env, policy, 5*time.Second); err != nil {
			t.Errorf("agent: %v", err)
		}
	}()

	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriodsWith(exec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Periods() != 2 || h.Intervals() != 2*cfg.EnvTemplate.T {
		t.Errorf("history holds %d periods / %d intervals", h.Periods(), h.Intervals())
	}
	if err := exec.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

type stubAgent struct{ dim int }

func (s stubAgent) Act([]float64) []float64 {
	out := make([]float64, s.dim)
	for i := range out {
		out[i] = 0.4
	}
	return out
}
