// Command edgeslice-train trains an EdgeSlice orchestration agent offline
// against the simulated network environment (Sec. VI-B) and saves it as a
// full-fidelity checkpoint (format edgeslice-checkpoint-v4: a JSON header,
// then the actor, critic(s), target networks and optimizer moments as one
// binary float64 payload, plus the generator state) for later deployment
// with edgeslice-daemon -agent (core.LoadAgent). Pass -replay to also
// capture the replay buffer (a bigger file; deployment never reads it).
//
// Usage:
//
//	edgeslice-train -out agent.ckpt [-steps 12000] [-nt] [-seed 1] [-replay]
package main

import (
	"flag"
	"fmt"
	"os"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "edgeslice-train: %v\n", err)
		os.Exit(1)
	}
}

// run uses a named return so the deferred Close can surface flush errors:
// a full disk or yanked volume must not report a truncated checkpoint as
// "saved".
func run() (err error) {
	var (
		out    = flag.String("out", "", "output file for the trained agent checkpoint, e.g. agent.ckpt (required)")
		steps  = flag.Int("steps", 12000, "training steps")
		nt     = flag.Bool("nt", false, "train the EdgeSlice-NT variant (no queue observation)")
		seed   = flag.Int64("seed", 1, "random seed")
		replay = flag.Bool("replay", false, "include the replay buffer (deployment never reads it)")
	)
	flag.Parse()
	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	cfg := core.DefaultConfig()
	cfg.NumRAs = 1 // a single shared agent; deploy to any number of RAs
	cfg.TrainSteps = *steps
	cfg.Seed = *seed
	if *nt {
		cfg.Algo = core.AlgoEdgeSliceNT
	}

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("training %s for %d steps...\n", cfg.Algo, *steps)
	if err := sys.Train(); err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("create %s: %w", *out, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	opts := ckpt.SnapshotOptions{IncludeReplay: *replay}
	if err := core.SaveCheckpoint(f, sys, opts); err != nil {
		return err
	}
	fmt.Printf("saved checkpoint to %s\n", *out)
	return nil
}
