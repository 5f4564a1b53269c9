package rcnet

import (
	"sync/atomic"

	"edgeslice/internal/telemetry"
)

// hubStats are the hub's lifetime counters, updated lock-free on the
// connection-handling paths.
type hubStats struct {
	registrations   atomic.Uint64    // successful agent registrations
	reconnects      atomic.Uint64    // registrations of an RA seen before
	reportsReceived atomic.Uint64    // perf-report frames read off connections
	reportsDropped  atomic.Uint64    // reports discarded (wrong period/dup/another RA's)
	connsDropped    atomic.Uint64    // registered conns dropped (read error or stalled write)
	heartbeats      atomic.Uint64    // heartbeat frames received
	reaped          atomic.Uint64    // conns closed by the liveness reaper
	superseded      atomic.Uint64    // stale conns replaced by a re-registration
	resumesSent     atomic.Uint64    // resume frames sent to re-registering agents
	regsByCodec     [2]atomic.Uint64 // registrations per wire codec (indexed by Codec)
}

// HubStats is a snapshot of the hub's lifetime counters, including the
// wire-level traffic of every connection the hub served.
type HubStats struct {
	Registrations   uint64 // successful agent registrations
	Reconnects      uint64 // re-registrations of a previously seen RA
	ReportsReceived uint64 // perf-report frames received
	ReportsDropped  uint64 // reports discarded (wrong period, duplicate, another RA's)
	ConnsDropped    uint64 // registered connections dropped
	Heartbeats      uint64 // heartbeat frames received
	Reaped          uint64 // connections closed by the liveness reaper
	Superseded      uint64 // stale connections replaced by re-registrations
	ResumesSent     uint64 // resume catch-up frames sent

	RegistrationsJSON   uint64 // registrations negotiated onto the JSON codec
	RegistrationsBinary uint64 // registrations negotiated onto the binary codec

	BytesIn   uint64            // wire bytes read from agents (all codecs)
	BytesOut  uint64            // wire bytes written to agents (all codecs)
	FramesIn  map[string]uint64 // frames read, by message type
	FramesOut map[string]uint64 // frames written, by message type
}

// Stats returns a snapshot of the hub's counters.
func (h *Hub) Stats() HubStats {
	return HubStats{
		Registrations:       h.stats.registrations.Load(),
		Reconnects:          h.stats.reconnects.Load(),
		ReportsReceived:     h.stats.reportsReceived.Load(),
		ReportsDropped:      h.stats.reportsDropped.Load(),
		ConnsDropped:        h.stats.connsDropped.Load(),
		Heartbeats:          h.stats.heartbeats.Load(),
		Reaped:              h.stats.reaped.Load(),
		Superseded:          h.stats.superseded.Load(),
		ResumesSent:         h.stats.resumesSent.Load(),
		RegistrationsJSON:   h.stats.regsByCodec[CodecJSON].Load(),
		RegistrationsBinary: h.stats.regsByCodec[CodecBinary].Load(),
		BytesIn:             h.wire.bytesIn.Load(),
		BytesOut:            h.wire.bytesOut.Load(),
		FramesIn:            snapshotFrames(&h.wire.framesIn),
		FramesOut:           snapshotFrames(&h.wire.framesOut),
	}
}

// EnableTelemetry exports the hub's counters through a telemetry registry
// (shared with the rest of the coordinator process).
func (h *Hub) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("edgeslice_hub_registrations_total",
		"successful agent registrations", h.stats.registrations.Load)
	reg.CounterFunc("edgeslice_hub_reconnects_total",
		"re-registrations of a previously seen RA", h.stats.reconnects.Load)
	reg.CounterFunc("edgeslice_hub_reports_received_total",
		"perf-report frames received from agents", h.stats.reportsReceived.Load)
	reg.CounterFunc("edgeslice_hub_reports_dropped_total",
		"reports discarded as wrong-period, duplicate, or naming another RA", h.stats.reportsDropped.Load)
	reg.CounterFunc("edgeslice_hub_conns_dropped_total",
		"registered connections dropped (read error or stalled write)", h.stats.connsDropped.Load)
	reg.CounterFunc("edgeslice_hub_heartbeats_total",
		"heartbeat frames received from agents", h.stats.heartbeats.Load)
	reg.CounterFunc("edgeslice_hub_conns_reaped_total",
		"connections closed by the liveness reaper", h.stats.reaped.Load)
	reg.CounterFunc("edgeslice_hub_conns_superseded_total",
		"stale connections replaced by a re-registration", h.stats.superseded.Load)
	reg.CounterFunc("edgeslice_hub_resumes_sent_total",
		"resume catch-up frames sent to re-registering agents", h.stats.resumesSent.Load)
	reg.CounterFunc("edgeslice_hub_registrations_json_total",
		"registrations negotiated onto the JSON wire codec", h.stats.regsByCodec[CodecJSON].Load)
	reg.CounterFunc("edgeslice_hub_registrations_binary_total",
		"registrations negotiated onto the binary wire codec", h.stats.regsByCodec[CodecBinary].Load)
	reg.CounterFunc("edgeslice_hub_wire_bytes_in_total",
		"wire bytes read from agents", h.wire.bytesIn.Load)
	reg.CounterFunc("edgeslice_hub_wire_bytes_out_total",
		"wire bytes written to agents", h.wire.bytesOut.Load)
	reg.GaugeFunc("edgeslice_hub_connected_agents",
		"RAs currently registered", func() float64 {
			_, registered, _ := h.Liveness()
			return float64(registered)
		})
	reg.GaugeFunc("edgeslice_hub_live_agents",
		"registered RAs seen within the liveness window", func() float64 {
			live, _, _ := h.Liveness()
			return float64(live)
		})
}

// agentStats are the agent client's lifetime counters.
type agentStats struct {
	reportsSent    atomic.Uint64
	coordsReceived atomic.Uint64
	heartbeatsSent atomic.Uint64
}

// AgentStats is a snapshot of an agent client's counters, including its
// wire-level traffic.
type AgentStats struct {
	ReportsSent    uint64 // perf reports written to the hub
	CoordsReceived uint64 // coordination messages received
	HeartbeatsSent uint64 // heartbeat frames written to the hub

	Codec     string            // negotiated wire codec ("json" or "binary")
	BytesIn   uint64            // wire bytes read from the hub
	BytesOut  uint64            // wire bytes written to the hub
	FramesIn  map[string]uint64 // frames read, by message type
	FramesOut map[string]uint64 // frames written, by message type
}

// Stats returns a snapshot of the client's counters.
func (c *AgentClient) Stats() AgentStats {
	return AgentStats{
		ReportsSent:    c.stats.reportsSent.Load(),
		CoordsReceived: c.stats.coordsReceived.Load(),
		HeartbeatsSent: c.stats.heartbeatsSent.Load(),
		Codec:          c.codec.String(),
		BytesIn:        c.wire.bytesIn.Load(),
		BytesOut:       c.wire.bytesOut.Load(),
		FramesIn:       snapshotFrames(&c.wire.framesIn),
		FramesOut:      snapshotFrames(&c.wire.framesOut),
	}
}

// EnableTelemetry exports the client's counters through a telemetry
// registry (the agent daemon's /metrics surface).
func (c *AgentClient) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("edgeslice_agent_reports_sent_total",
		"perf reports sent to the hub", c.stats.reportsSent.Load)
	reg.CounterFunc("edgeslice_agent_coordinations_received_total",
		"coordination messages received from the hub", c.stats.coordsReceived.Load)
	reg.CounterFunc("edgeslice_agent_heartbeats_sent_total",
		"heartbeat frames sent to the hub", c.stats.heartbeatsSent.Load)
	reg.CounterFunc("edgeslice_agent_wire_bytes_in_total",
		"wire bytes read from the hub", c.wire.bytesIn.Load)
	reg.CounterFunc("edgeslice_agent_wire_bytes_out_total",
		"wire bytes written to the hub", c.wire.bytesOut.Load)
	reg.GaugeFunc("edgeslice_agent_codec_binary",
		"1 when the connection negotiated the binary wire codec", func() float64 {
			if c.codec == CodecBinary {
				return 1
			}
			return 0
		})
}
