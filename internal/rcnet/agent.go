package rcnet

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// AgentClient is the orchestration-agent side of the RC-L interface. The
// write mutex serializes Report frames against the heartbeat goroutine
// (StartHeartbeat), so the two writers can never interleave mid-frame; it
// also guards the frame writer's reusable encode buffer.
type AgentClient struct {
	ra    int
	conn  net.Conn
	codec Codec
	mr    *msgReader
	in    Envelope // Recv's decode target, reused across frames

	wmu sync.Mutex // serializes all writes to conn
	mw  *msgWriter

	hbStop func() // set by StartHeartbeat; safe to call more than once

	stats agentStats
	wire  wireStats
}

// DialAgent connects to the hub and registers as the given RA using the
// JSON wire codec — the compatibility default. The timeout bounds the
// whole handshake: both the TCP dial and the register-frame write (a hub
// with a wedged accept queue can otherwise absorb the connection but never
// drain the socket, blocking the write forever).
func DialAgent(addr string, ra int, timeout time.Duration) (*AgentClient, error) {
	return DialAgentCodec(addr, ra, timeout, CodecJSON)
}

// DialAgentCodec is DialAgent with an explicit wire codec. The codec of
// the register frame is the negotiation: the hub detects it and answers
// the connection in kind, so no extra round trip is spent, and hubs predating
// the binary codec keep working with JSON clients.
func DialAgentCodec(addr string, ra int, timeout time.Duration, codec Codec) (*AgentClient, error) {
	if ra < 0 {
		return nil, fmt.Errorf("rcnet: negative RA id %d", ra)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("rcnet: dial %s: %w", addr, err)
	}
	c := &AgentClient{ra: ra, conn: conn, codec: codec}
	c.mw = newMsgWriter(conn, codec, &c.wire)
	c.mr = newMsgReader(conn, &c.wire)
	_ = conn.SetWriteDeadline(deadline(conn, timeout))
	if err := c.mw.write(Envelope{Type: MsgRegister, RA: ra}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	// Clear the handshake deadline: later writes (reports, heartbeats)
	// manage their own.
	_ = conn.SetWriteDeadline(time.Time{})
	return c, nil
}

// Recv blocks for the next frame from the hub, skipping frame types an
// agent never receives. Callers dispatch on the envelope's Type:
// MsgCoordination, MsgResume, or MsgShutdown.
//
// A binary frame decodes into scratch the client owns and reuses: the
// envelope's slices (Z, Y, ZHist, YHist) stay valid only until the next
// Recv, so copy anything kept longer.
func (c *AgentClient) Recv(timeout time.Duration) (Envelope, error) {
	if err := c.conn.SetReadDeadline(deadline(c.conn, timeout)); err != nil {
		return Envelope{}, fmt.Errorf("rcnet: set deadline: %w", err)
	}
	for {
		if err := c.mr.readInto(&c.in); err != nil {
			return Envelope{}, fmt.Errorf("rcnet: recv: %w", err)
		}
		switch c.in.Type {
		case MsgShutdown, MsgResume:
			return c.in, nil
		case MsgCoordination:
			c.stats.coordsReceived.Add(1)
			return c.in, nil
		default:
			// Ignore unexpected frames and keep waiting.
		}
	}
}

// Report sends the period's cumulative slice performance together with the
// per-interval records that let the coordinator reconstruct the full local
// History (see IntervalRecord). intervals may be nil for a summary-only
// report, which the remote engine rejects.
func (c *AgentClient) Report(period int, perf []float64, queues []int, intervals []IntervalRecord) error {
	c.wmu.Lock()
	//edgeslice:lockio wmu only serializes this client's two writers (report vs heartbeat) on its own conn; blocking here blocks nobody else
	err := c.mw.write(Envelope{
		Type: MsgPerfReport, RA: c.ra, Period: period, Perf: perf, Queues: queues,
		Intervals: intervals,
	})
	c.wmu.Unlock()
	if err == nil {
		c.stats.reportsSent.Add(1)
	}
	return err
}

// StartHeartbeat launches a goroutine that writes a heartbeat frame every
// interval so a hub with liveness enabled (Hub.SetLiveness) can tell a
// slow-computing agent from a dead one. Pick an interval comfortably below
// the hub's liveness timeout (the daemon uses timeout = 4×interval). The
// goroutine exits on the first write error (the next Report will surface
// the broken conn) or when stopped; call the returned stop function — or
// Close, which stops it too — before discarding the client.
func (c *AgentClient) StartHeartbeat(interval time.Duration) (stop func()) {
	if interval <= 0 || c.hbStop != nil {
		return func() {}
	}
	stopC := make(chan struct{})
	doneC := make(chan struct{})
	go func() {
		defer close(doneC)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopC:
				return
			case <-ticker.C:
			}
			c.wmu.Lock()
			//edgeslice:lockio wmu only serializes this client's two writers on its own conn, and the write is deadline-bounded
			_ = c.conn.SetWriteDeadline(deadline(c.conn, interval))
			err := c.mw.write(Envelope{Type: MsgHeartbeat, RA: c.ra})
			//edgeslice:lockio clearing the deadline cannot block; it must happen before Report writes under the same lock
			_ = c.conn.SetWriteDeadline(time.Time{})
			c.wmu.Unlock()
			if err != nil {
				return
			}
			c.stats.heartbeatsSent.Add(1)
		}
	}()
	var once sync.Once
	c.hbStop = func() {
		once.Do(func() { close(stopC) })
		<-doneC
	}
	return c.hbStop
}

// Close stops the heartbeat goroutine (if any) and closes the connection.
func (c *AgentClient) Close() error {
	if c.hbStop != nil {
		c.hbStop()
	}
	return c.conn.Close()
}
