// Distributed deployment: runs the EdgeSlice performance coordinator and
// two orchestration agents as separate network endpoints on localhost,
// speaking the RC protocol over real TCP (Sec. V-D). In production the
// agents would run on different machines next to their RAs; here they run
// in goroutines so the example is self-contained — the wire traffic is
// identical.
package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"edgeslice"
)

const timeout = 2 * time.Minute

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "distributed: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		numRAs  = 2
		periods = 6
	)

	// Train one shared policy first (in production: edgeslice-train once,
	// ship the checkpoint to every agent host — the train-once /
	// evaluate-many workflow of Sec. V).
	fmt.Println("training shared orchestration policy...")
	trainCfg := edgeslice.DefaultConfig()
	trainCfg.NumRAs = 1
	trainCfg.TrainSteps = 8000
	trainSys, err := edgeslice.NewSystem(trainCfg)
	if err != nil {
		return err
	}
	if err := trainSys.Train(); err != nil {
		return err
	}

	// The coordinator's System supplies the run's shape and the ADMM
	// performance coordinator; the environments of record live with the
	// agents, so it needs no training.
	cfg := edgeslice.DefaultConfig()
	cfg.NumRAs = numRAs
	sys, err := edgeslice.NewSystem(cfg)
	if err != nil {
		return err
	}
	hub, err := edgeslice.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, numRAs)
	if err != nil {
		return err
	}
	exec := edgeslice.NewRemoteExecutor(hub, timeout) // Close shuts the hub down
	defer func() { _ = exec.Close() }()
	fmt.Printf("coordinator hub listening on %s\n", hub.Addr())

	var wg sync.WaitGroup
	errs := make(chan error, numRAs)
	for ra := 0; ra < numRAs; ra++ {
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			if err := agentProcess(hub.Addr(), ra, trainSys); err != nil {
				errs <- fmt.Errorf("RA %d: %w", ra, err)
			}
		}(ra)
	}

	if err := hub.WaitRegistered(timeout); err != nil {
		return err
	}
	fmt.Println("all agents registered; running Algorithm 1...")

	h, err := sys.RunPeriodsWith(exec, periods)
	if err != nil {
		return err
	}
	for p, perf := range h.PeriodPerf {
		var total float64
		for i := range perf {
			for j := range perf[i] {
				total += perf[i][j]
			}
		}
		fmt.Printf("period %d: total performance %.1f\n", p, total)
	}
	if err := exec.Close(); err != nil {
		return err
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	fmt.Println("distributed orchestration finished cleanly")
	return nil
}

// agentProcess is what each agent host runs: load the policy, build the
// local environment, connect to the coordinator, serve periods until
// shutdown.
func agentProcess(addr string, ra int, trained *edgeslice.System) error {
	envCfg := edgeslice.DefaultEnvConfig()
	envCfg.TrainCoordRandom = false
	envCfg.Seed = int64(ra+1) * 7919
	env, err := edgeslice.NewEnv(envCfg)
	if err != nil {
		return err
	}
	env.Reset()

	// Serialize/deserialize the trained policy as a full-fidelity
	// checkpoint — the same bytes the edgeslice-train CLI writes to disk.
	var buf bytes.Buffer
	if err := edgeslice.SaveCheckpoint(&buf, trained, edgeslice.CheckpointOptions{}); err != nil {
		return err
	}
	policy, err := edgeslice.LoadAgent(&buf, env.StateDim(), env.ActionDim())
	if err != nil {
		return err
	}

	client, err := edgeslice.DialAgent(addr, ra, timeout)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	return edgeslice.RunAgent(client, env, policy, timeout)
}
