// Trace-driven simulation: the paper's Sec. VII-D setting scaled for a
// demo — multiple RAs whose slice traffic follows synthesized Trento-like
// diurnal profiles (one geographic area per RA), T = 24 hourly intervals
// per period. The example writes the trace to CSV, builds the multi-RA
// system, and compares EdgeSlice with TARO over several simulated days.
package main

import (
	"fmt"
	"os"

	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tracedriven: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const numRAs = 4 // demo scale; Fig. 9 sweeps 5-20

	// Synthesize the diurnal trace and persist it (the CSV round-trips via
	// the traffic loader, so a real export can be dropped in instead).
	trace, err := traffic.SynthesizeTrentoLike(mathutil.NewRNG(42), numRAs)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp("", "trento-like-*.csv")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(f.Name()) }() // the file only demonstrates the format: leave nothing behind
	if err := trace.WriteCSV(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("synthesized %d-area diurnal trace -> %s\n", trace.NumAreas(), f.Name())

	for _, algo := range []core.Algorithm{core.AlgoEdgeSlice, core.AlgoTARO} {
		cfg := core.DefaultConfig()
		cfg.Algo = algo
		cfg.NumRAs = numRAs
		cfg.TrainSteps = 8000
		cfg.EnvTemplate.T = 24 // hourly intervals, one-day periods

		// Each RA draws its traffic from its own geographic area. At daily
		// mean 10 the diurnal peak (~1.8x) exceeds the provisioned
		// capacity, so the peak hours are genuinely congested — the regime
		// where queue-aware orchestration pays off most.
		perRA := make([]*netsim.Config, numRAs)
		for j := 0; j < numRAs; j++ {
			envCfg := cfg.EnvTemplate
			src0, err := trace.AreaProfile(j, 10)
			if err != nil {
				return err
			}
			src1, err := trace.AreaProfile((j+1)%numRAs, 10)
			if err != nil {
				return err
			}
			envCfg.Sources = []traffic.Source{src0, src1}
			perRA[j] = &envCfg
		}
		cfg.EnvPerRA = perRA

		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		if err := sys.Train(); err != nil {
			return err
		}
		h, err := sys.RunPeriods(5) // five simulated days
		if err != nil {
			return err
		}
		perf, err := h.MeanSystemPerf(h.Intervals() / 2)
		if err != nil {
			return err
		}
		sla, err := h.SLASatisfactionRate(0)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s steady-state perf %10.2f per interval, SLA %3.0f%%\n",
			algo.String()+":", perf, sla*100)
	}
	return nil
}
