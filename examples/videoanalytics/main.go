// Video analytics: the paper's motivating workload (Sec. VII-A). Two
// slices offload YOLO object detection to edge GPUs — slice 1 sends
// high-resolution frames (500x500) to a small model (YOLO 320x320), slice 2
// sends low-resolution frames (100x100) to a large model (YOLO 608x608).
// The example compares how EdgeSlice and TARO split the three resource
// domains between these asymmetric applications.
package main

import (
	"fmt"
	"os"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "videoanalytics: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	for _, algo := range []core.Algorithm{core.AlgoEdgeSlice, core.AlgoTARO} {
		cfg := core.DefaultConfig()
		cfg.Algo = algo
		cfg.TrainSteps = 8000
		// Make the two applications explicit (these are also the defaults).
		cfg.EnvTemplate.Apps = []netsim.AppProfile{
			{Name: "hd-frames-small-model", FrameResolution: 500, ModelSize: 320},
			{Name: "sd-frames-large-model", FrameResolution: 100, ModelSize: 608},
		}

		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		if err := sys.Train(); err != nil {
			return err
		}
		h, err := sys.RunPeriods(8)
		if err != nil {
			return err
		}

		perf, err := h.MeanSystemPerf(h.Intervals() / 2)
		if err != nil {
			return err
		}
		fmt.Printf("\n=== %s ===\n", algo)
		fmt.Printf("steady-state system performance: %.2f\n", perf)
		names := []string{"radio", "transport", "computing"}
		for i := 0; i < h.NumSlices; i++ {
			fmt.Printf("slice %d (%s):", i+1, cfg.EnvTemplate.Apps[i].Name)
			for k := 0; k < netsim.NumResources; k++ {
				u, err := h.MeanUsage(i, k, h.Intervals()/2)
				if err != nil {
					return err
				}
				fmt.Printf("  %s=%.2f", names[k], u)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nEdgeSlice should give slice 1 the radio/transport share and slice 2 the computing share;")
	fmt.Println("TARO splits every domain identically and cannot express that asymmetry (Fig. 7 / Fig. 8).")
	return nil
}
