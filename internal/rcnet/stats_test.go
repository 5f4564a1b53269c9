package rcnet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"edgeslice/internal/telemetry"
)

// TestHubAndAgentStats drives one report round plus a reconnect and a
// wrong-period report, checking every counter moves as specified.
func TestHubAndAgentStats(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	const timeout = 5 * time.Second

	c, err := DialAgent(h.Addr(), 0, timeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRegistered(timeout); err != nil {
		t.Fatal(err)
	}
	// A stale report for period 99 is discarded by Collect; the period-0
	// report is accepted.
	if err := c.Report(99, []float64{1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(0, []float64{2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(h, 0, timeout); err != nil {
		t.Fatal(err)
	}

	// Reconnect: close the agent side and wait for the hub to notice the
	// drop before re-registering (a dial that races the drop is rejected
	// as a duplicate — the agent's normal retry loop handles that).
	_ = c.Close()
	deadline := time.Now().Add(timeout)
	for h.Stats().ConnsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hub never noticed the closed connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c2, err := DialAgent(h.Addr(), 0, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for {
		s := h.Stats()
		if s.Registrations == 2 && s.Reconnects == 1 && s.ConnsDropped == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats after reconnect = %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := h.Stats()
	if s.ReportsReceived != 2 || s.ReportsDropped != 1 {
		t.Errorf("reports received/dropped = %d/%d, want 2/1", s.ReportsReceived, s.ReportsDropped)
	}

	as := c.Stats()
	if as.ReportsSent != 2 {
		t.Errorf("agent reports sent = %d, want 2", as.ReportsSent)
	}

	// Both sides export through a registry.
	reg := telemetry.NewRegistry()
	h.EnableTelemetry(reg)
	c.EnableTelemetry(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"edgeslice_hub_registrations_total 2",
		"edgeslice_hub_reconnects_total 1",
		"edgeslice_hub_reports_received_total 2",
		"edgeslice_hub_reports_dropped_total 1",
		"edgeslice_hub_conns_dropped_total 1",
		"edgeslice_hub_connected_agents 1",
		"edgeslice_agent_reports_sent_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
}
