// Quickstart: assemble the paper's prototype-experiment system (2 network
// slices, 2 resource autonomies, video-analytics workloads), train the
// orchestration agents, run Algorithm 1, and print the results.
package main

import (
	"fmt"
	"os"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Configure the system. DefaultConfig is the paper's Sec. VII-C
	//    experiment at CI training scale; everything is overridable.
	cfg := core.DefaultConfig()
	cfg.TrainSteps = 6000 // keep the demo under ~10 s

	// 2. Build and train.
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	fmt.Println("training DDPG orchestration agents...")
	if err := sys.Train(); err != nil {
		return err
	}

	// 3. Run the decentralized orchestration loop (Algorithm 1).
	history, err := sys.RunPeriods(8)
	if err != nil {
		return err
	}

	// 4. Inspect the results.
	fmt.Printf("ran %d intervals across %d RAs\n", history.Intervals(), history.NumRAs)
	perf, err := history.MeanSystemPerf(history.Intervals() / 2)
	if err != nil {
		return err
	}
	fmt.Printf("steady-state system performance: %.2f per interval\n", perf)
	sla, err := history.SLASatisfactionRate(0)
	if err != nil {
		return err
	}
	fmt.Printf("SLA satisfaction: %.0f%%\n", sla*100)
	for i := 0; i < history.NumSlices; i++ {
		for k := 0; k < netsim.NumResources; k++ {
			u, err := history.MeanUsage(i, k, 0)
			if err != nil {
				return err
			}
			fmt.Printf("slice %d mean share of resource %d: %.2f\n", i+1, k, u)
		}
	}
	return nil
}
