package core

import (
	"bytes"
	"strings"
	"testing"

	"edgeslice/internal/telemetry"
)

func TestHealthAndTelemetryExport(t *testing.T) {
	cfg := execTestConfig(AlgoEqualShare)
	s := deployedSystem(t, cfg)
	s.SetRecording(RecordOptions{StreamWindow: 32})

	h := s.Health()
	if h.Intervals != 0 || h.Periods != 0 || h.SLAMet != nil {
		t.Fatalf("fresh health = %+v", h)
	}
	if !h.Streaming || h.StreamWindow != 32 {
		t.Fatalf("health does not reflect streaming mode: %+v", h)
	}

	reg := telemetry.NewRegistry()
	s.EnableTelemetry(reg)

	if _, err := s.RunPeriods(2); err != nil {
		t.Fatal(err)
	}
	T := cfg.EnvTemplate.T
	h = s.Health()
	if h.Intervals != uint64(2*T) || h.Periods != 2 {
		t.Errorf("health after run = %d intervals / %d periods, want %d / 2", h.Intervals, h.Periods, 2*T)
	}
	if len(h.SLAMet) != cfg.EnvTemplate.NumSlices {
		t.Errorf("health SLAMet has %d slices, want %d", len(h.SLAMet), cfg.EnvTemplate.NumSlices)
	}
	if h.Algorithm != "EqualShare" {
		t.Errorf("health algorithm = %q", h.Algorithm)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"edgeslice_intervals_total 20",
		"edgeslice_periods_total 2",
		`edgeslice_sla_met{slice="0"}`,
		"edgeslice_primal_residual",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
}
