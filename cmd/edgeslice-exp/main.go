// Command edgeslice-exp regenerates the paper's evaluation figures
// (Figs. 6-11) and prints their data series as text tables. Every figure
// point is a core.Config run through core.System (Fig. 8's are 1-RA
// systems whose agents see no coordination), and each distinct agent is
// trained once per invocation and deployed wherever a figure needs it.
//
// Usage:
//
//	edgeslice-exp [-fig all|fig6|fig7|fig8|fig9|fig10|fig11]
//	              [-train 12000] [-periods 10] [-seed 1]
//
// It can also replay an on-disk history log (written by edgeslice-sim
// -history or edgeslice-daemon -history) into the same per-period table
// and steady-state summary a live run prints:
//
//	edgeslice-exp -replay run.histlog
package main

import (
	"flag"
	"fmt"
	"os"

	"edgeslice/internal/core"
	"edgeslice/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "edgeslice-exp: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: all, fig6 ... fig11")
		train   = flag.Int("train", 12000, "agent training steps")
		periods = flag.Int("periods", 10, "orchestration periods per run")
		seed    = flag.Int64("seed", 1, "random seed")
		replay  = flag.String("replay", "", "replay an on-disk history log and print its summary instead of running figures")
	)
	flag.Parse()

	if *replay != "" {
		return runReplay(*replay)
	}

	o := experiments.DefaultOptions()
	o.TrainSteps = *train
	o.Periods = *periods
	o.Seed = *seed
	lab, err := experiments.New(o)
	if err != nil {
		return err
	}

	runs := map[string]func() error{
		"fig6": func() error {
			a, b, err := lab.Fig6()
			return printAll(err, a, b)
		},
		"fig7": func() error {
			figs, err := lab.Fig7()
			return printAll(err, figs...)
		},
		"fig8": func() error {
			cdf, ratios, err := lab.Fig8()
			if err != nil {
				return err
			}
			return printAll(nil, append([]*experiments.Figure{cdf}, ratios...)...)
		},
		"fig9": func() error {
			a, b, err := lab.Fig9()
			return printAll(err, a, b)
		},
		"fig10": func() error {
			a, b, err := lab.Fig10()
			return printAll(err, a, b)
		},
		"fig11": func() error {
			a, b, err := lab.Fig11()
			return printAll(err, a, b)
		},
	}

	if *fig != "all" {
		f, ok := runs[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (want all, fig6 ... fig11)", *fig)
		}
		return f()
	}
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		fmt.Printf("\n######## %s ########\n", id)
		if err := runs[id](); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// runReplay reconstructs a History from an append-only history log and
// prints the same report a live exact-mode run does.
func runReplay(path string) error {
	h, truncated, err := core.ReplayHistoryLogFile(path)
	if err != nil {
		return fmt.Errorf("replay %s: %w", path, err)
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "warning: %s has a truncated tail (crashed writer?); replaying the complete prefix\n", path)
	}
	fmt.Printf("%s: %d RAs, %d slices, %d periods x %d intervals\n",
		path, h.NumRAs, h.NumSlices, h.Periods(), h.T)
	return core.WriteReport(os.Stdout, h)
}

func printAll(err error, figs ...*experiments.Figure) error {
	if err != nil {
		return err
	}
	for _, f := range figs {
		if err := experiments.WriteTable(os.Stdout, f); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
