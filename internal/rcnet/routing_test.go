package rcnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// echoAgents starts one lightweight agent goroutine per RA that answers
// every coordination frame with perf[i] = 2*z[i] - y[i] + ra, so the
// collected grid proves each RA received exactly its own coordination
// column. Codecs alternate per RA, exercising a mixed JSON/binary fleet.
func echoAgents(t *testing.T, h *Hub, ras, periods int) (*sync.WaitGroup, []error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, ras)
	for ra := 0; ra < ras; ra++ {
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			codec := CodecJSON
			if ra%2 == 1 {
				codec = CodecBinary
			}
			c, err := DialAgentCodec(h.Addr(), ra, testTimeout, codec)
			if err != nil {
				errs[ra] = err
				return
			}
			defer c.Close()
			for p := 0; p < periods; p++ {
				m, err := recvCoordination(c, 30*time.Second)
				period, z, y := m.Period, m.Z, m.Y
				if err != nil {
					errs[ra] = err
					return
				}
				perf := make([]float64, len(z))
				for i := range z {
					perf[i] = 2*z[i] - y[i] + float64(ra)
				}
				if err := c.Report(period, perf, nil, nil); err != nil {
					errs[ra] = err
					return
				}
			}
		}(ra)
	}
	return &wg, errs
}

// runEchoRounds drives the hub through the periods against echoAgents and
// verifies every collected perf value against the expected echo, proving
// the hub delivered the right column to the right RA and the collect placed
// every report at its RA's index.
func runEchoRounds(t *testing.T, h *Hub, slices, ras, periods int) {
	t.Helper()
	wg, errs := echoAgents(t, h, ras, periods)
	if err := h.WaitRegistered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < periods; p++ {
		z := make([][]float64, slices)
		y := make([][]float64, slices)
		for i := range z {
			z[i] = make([]float64, ras)
			y[i] = make([]float64, ras)
			for ra := 0; ra < ras; ra++ {
				z[i][ra] = float64(i+1)*0.5 + float64(ra)*0.25 + float64(p)*2
				y[i][ra] = float64(i)*0.125 - float64(ra)*0.5 + float64(p)
			}
		}
		if err := h.Broadcast(p, z, y); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		reports, err := collect(h, p, 30*time.Second)
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		for i := 0; i < slices; i++ {
			for ra := 0; ra < ras; ra++ {
				if want := 2*z[i][ra] - y[i][ra] + float64(ra); reports[ra].Perf[i] != want {
					t.Fatalf("period %d slice %d RA %d: perf %v, want %v", p, i, ra, reports[ra].Perf[i], want)
				}
			}
		}
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for ra, err := range errs {
		if err != nil {
			t.Errorf("agent %d: %v", ra, err)
		}
	}
}

// TestShardedBroadcastCollectRouting proves broadcast and collect routing
// at 64 RAs through NewShardedHub, the constructor the bench module calls:
// at shards=1 it is NewHub, and every RA receives exactly its own
// coordination column and every report lands at its RA's index, with a
// mixed JSON/binary fleet. The hub no longer shards, so any other count
// (2, 4, and the uneven 5) is refused rather than quietly run as one hub.
func TestShardedBroadcastCollectRouting(t *testing.T) {
	const ras, slices, periods = 64, 2, 3
	for _, shards := range []int{1, 2, 4, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h, err := NewShardedHub("127.0.0.1:0", slices, ras, shards)
			if shards != 1 {
				if err == nil {
					_ = h.Shutdown()
					t.Fatalf("NewShardedHub accepted %d shards", shards)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			runEchoRounds(t, h, slices, ras, periods)
		})
	}
}

// TestRoutingAt1024RAs is the remote-scaling smoke: 1024 concurrent agent
// connections against one hub, every column routed correctly.
func TestRoutingAt1024RAs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-connection scaling test skipped in -short mode")
	}
	const ras, slices, periods = 1024, 2, 2
	h, err := NewHub("127.0.0.1:0", slices, ras)
	if err != nil {
		t.Fatal(err)
	}
	runEchoRounds(t, h, slices, ras, periods)
}

// TestMixedCodecPeers pins the register-time negotiation: a JSON agent and
// a binary agent serve the same run, the hub answers each in its own codec,
// and both the hub's and the clients' wire stats record the split.
func TestMixedCodecPeers(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	cJSON, err := DialAgentCodec(h.Addr(), 0, testTimeout, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer cJSON.Close()
	cBin, err := DialAgentCodec(h.Addr(), 1, testTimeout, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer cBin.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	agentErrs := make([]error, 2)
	for idx, c := range []*AgentClient{cJSON, cBin} {
		wg.Add(1)
		go func(idx int, c *AgentClient) {
			defer wg.Done()
			m, err := recvCoordination(c, testTimeout)
			period, z := m.Period, m.Z
			if err != nil {
				agentErrs[idx] = err
				return
			}
			agentErrs[idx] = c.Report(period, []float64{z[0] + 1}, nil, nil)
		}(idx, c)
	}
	z := [][]float64{{0.5, -2.25}}
	y := [][]float64{{0, 0}}
	if err := h.Broadcast(0, z, y); err != nil {
		t.Fatal(err)
	}
	reports, err := collect(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for idx, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", idx, err)
		}
	}
	if reports[0].Perf[0] != 1.5 || reports[1].Perf[0] != -1.25 {
		t.Errorf("perf = %v, want [[1.5 -1.25]]", reports)
	}

	stats := h.Stats()
	if stats.RegistrationsJSON != 1 || stats.RegistrationsBinary != 1 {
		t.Errorf("codec registrations = %d json / %d binary, want 1/1",
			stats.RegistrationsJSON, stats.RegistrationsBinary)
	}
	if stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Errorf("hub wire bytes = %d in / %d out, want nonzero", stats.BytesIn, stats.BytesOut)
	}
	if stats.FramesIn[string(MsgPerfReport)] != 2 || stats.FramesOut[string(MsgCoordination)] != 2 {
		t.Errorf("hub frames = %v in / %v out, want 2 perf_report in and 2 coordination out",
			stats.FramesIn, stats.FramesOut)
	}
	for _, tc := range []struct {
		c    *AgentClient
		want string
	}{{cJSON, "json"}, {cBin, "binary"}} {
		as := tc.c.Stats()
		if as.Codec != tc.want {
			t.Errorf("agent codec = %q, want %q", as.Codec, tc.want)
		}
		if as.BytesIn == 0 || as.BytesOut == 0 {
			t.Errorf("%s agent wire bytes = %d in / %d out, want nonzero", tc.want, as.BytesIn, as.BytesOut)
		}
		if as.FramesOut[string(MsgPerfReport)] != 1 || as.FramesIn[string(MsgCoordination)] != 1 {
			t.Errorf("%s agent frames = %v in / %v out", tc.want, as.FramesIn, as.FramesOut)
		}
	}
}

// rogueHub starts a one-slice, two-RA hub whose RA 0 is a hand-driven
// connection speaking codec, so a test can forge its frames, and whose
// RA 1 is an ordinary agent client.
func rogueHub(t *testing.T, codec Codec) (*Hub, *msgWriter, *AgentClient) {
	t.Helper()
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Shutdown() })
	rogue, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rogue.Close() })
	forge := newMsgWriter(rogue, codec, nil)
	if err := forge.write(Envelope{Type: MsgRegister, RA: 0}); err != nil {
		t.Fatal(err)
	}
	c1, err := DialAgentCodec(h.Addr(), 1, testTimeout, codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c1.Close() })
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	return h, forge, c1
}

// TestSpoofedRAReportDropped pins that a connection files reports only for
// the RA it registered as, under both codecs: a report a conn registered
// as RA 0 sends for RA 1 must neither fill RA 1's collect slot (which would
// drop RA 1's honest report as a duplicate) nor move RA 1's last reported
// period, which sets its resume frame.
func TestSpoofedRAReportDropped(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			h, forge, c1 := rogueHub(t, codec)
			// RA 0's conn forges RA 1's period-0 report and one far ahead,
			// then files its own; RA 1 reports only once the hub has read
			// all three, so a forged report that landed would be first.
			for _, e := range []Envelope{
				{Type: MsgPerfReport, RA: 1, Period: 0, Perf: []float64{-999}},
				{Type: MsgPerfReport, RA: 1, Period: 7, Perf: []float64{-998}},
				{Type: MsgPerfReport, RA: 0, Period: 0, Perf: []float64{-10}},
			} {
				if err := forge.write(e); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "the rogue conn's 3 reports", func() bool { return h.Stats().ReportsReceived >= 3 })
			if err := c1.Report(0, []float64{-20}, nil, nil); err != nil {
				t.Fatal(err)
			}
			reports, err := collect(h, 0, testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if reports[0].Perf[0] != -10 || reports[1].Perf[0] != -20 {
				t.Errorf("period 0 perf = %v, want [[-10 -20]] (a forged report landed)", reports)
			}
			h.mu.Lock()
			last := h.lastReported[1]
			h.mu.Unlock()
			if last != 0 {
				t.Errorf("RA 1's last reported period = %d, want 0 (a forged report moved it)", last)
			}
			if got := h.Stats().ReportsDropped; got != 2 {
				t.Errorf("ReportsDropped = %d, want 2 (both forged reports)", got)
			}
		})
	}
}

// TestDuplicateAndWrongShardReports pins the hub's report hygiene against
// a conn that files a report for an RA it does not serve (on the one hub
// that report is a spoofed one; the hub once counted it as wrong-shard)
// and then a burst of duplicates of its own report, under both codecs
// (binary reports decode into recycled buffers). The foreign report is
// dropped on arrival and each duplicate of a collected report is discarded
// by the same collect or, once stale, by the next one.
func TestDuplicateAndWrongShardReports(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			h, forge, c1 := rogueHub(t, codec)
			// Period 0, in order on RA 0's conn: a report claiming RA 1, the
			// real report, and a burst of duplicates of it. The burst keeps
			// RA 0's reader decoding into recycled buffers while the
			// collector copies the real report out, which the race detector
			// watches.
			const dups = 3
			frames := []Envelope{
				{Type: MsgPerfReport, RA: 1, Period: 0, Perf: []float64{-999}},
				{Type: MsgPerfReport, RA: 0, Period: 0, Perf: []float64{-10}},
			}
			for k := 0; k < dups; k++ {
				frames = append(frames, Envelope{Type: MsgPerfReport, RA: 0, Period: 0, Perf: []float64{-777 - float64(k)}})
			}
			for _, e := range frames {
				if err := forge.write(e); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "the rogue conn's first 2 reports", func() bool { return h.Stats().ReportsReceived >= 2 })
			if err := c1.Report(0, []float64{-20}, nil, nil); err != nil {
				t.Fatal(err)
			}
			reports, err := collect(h, 0, testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if reports[0].Perf[0] != -10 || reports[1].Perf[0] != -20 {
				t.Errorf("period 0 perf = %v, want [[-10 -20]] (forged frames must not land)", reports)
			}

			// Period 1 flushes the duplicates still queued behind RA 0's
			// next report (their stale period is dropped during this
			// collect) and proves the conn still serves honest reports.
			if err := forge.write(Envelope{Type: MsgPerfReport, RA: 0, Period: 1, Perf: []float64{-11}}); err != nil {
				t.Fatal(err)
			}
			if err := c1.Report(1, []float64{-21}, nil, nil); err != nil {
				t.Fatal(err)
			}
			reports, err = collect(h, 1, testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if reports[0].Perf[0] != -11 || reports[1].Perf[0] != -21 {
				t.Errorf("period 1 perf = %v, want [[-11 -21]]", reports)
			}
			if got := h.Stats().ReportsDropped; got != 1+dups { // foreign RA + duplicates
				t.Errorf("ReportsDropped = %d, want %d", got, 1+dups)
			}
		})
	}
}
