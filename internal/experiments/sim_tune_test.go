package experiments

import (
	"os"
	"strconv"
	"testing"
)

// simDiagnostic evaluates the simulation-scale point of nSl slices and 10
// RAs for all three algorithms, training for the steps named by the
// environment variable env, and logs steady-state performance per RA and
// per slice and the SLA satisfaction. It is a tuning aid.
func simDiagnostic(t *testing.T, env string, nSl int) {
	stepsEnv := os.Getenv(env)
	if stepsEnv == "" {
		t.Skipf("set %s=<steps> to run", env)
	}
	steps, err := strconv.Atoi(stepsEnv)
	if err != nil {
		t.Fatalf("bad %s: %v", env, err)
	}
	o := DefaultOptions()
	o.TrainSteps = steps
	o.Periods = 6
	l, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range comparisonAlgos {
		cfg, err := simSystemConfig(o, algo, nSl, simRAs)
		if err != nil {
			t.Fatal(err)
		}
		h, err := l.runTrained(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := h.MeanSystemPerf(h.Intervals() / 2)
		if err != nil {
			t.Fatal(err)
		}
		sla, err := h.SLASatisfactionRate(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-14s per-RA perf %10.1f  per-slice perf %10.1f  SLA %3.0f%%",
			algo, mp/float64(simRAs), mp/float64(nSl), sla*100)
	}
}

// TestSimPointDiagnostic evaluates the 5-slice point, enabled with
// EDGESLICE_SIM_DIAG=<train-steps>.
func TestSimPointDiagnostic(t *testing.T) { simDiagnostic(t, "EDGESLICE_SIM_DIAG", simSlices) }

// TestSim7Diagnostic evaluates the 7-slice point, enabled with
// EDGESLICE_SIM7_DIAG=<train-steps>.
func TestSim7Diagnostic(t *testing.T) { simDiagnostic(t, "EDGESLICE_SIM7_DIAG", 7) }
