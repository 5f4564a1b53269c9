package rcnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestShardPartition pins the contiguous balanced RA split: every RA maps
// to exactly one shard, ranges tile [0, J) in order, and sizes differ by at
// most one.
func TestShardPartition(t *testing.T) {
	for _, tc := range []struct{ ras, shards, want int }{
		{1, 1, 1}, {7, 1, 1}, {7, 2, 2}, {7, 3, 3}, {8, 4, 4},
		{1024, 4, 4}, {1000, 7, 7},
		{3, 8, 3}, // clamped to the RA count
	} {
		h, err := NewShardedHub("127.0.0.1:0", 2, tc.ras, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(h.shards); got != tc.want {
			t.Errorf("ras=%d shards=%d: %d shards, want %d", tc.ras, tc.shards, got, tc.want)
		}
		prev := -1
		for s, sh := range h.shards {
			if sh.lo != h.shardLo(s) || sh.hi != h.shardLo(s+1) {
				t.Errorf("ras=%d shards=%d: shard %d spans [%d,%d), want [%d,%d)",
					tc.ras, tc.shards, s, sh.lo, sh.hi, h.shardLo(s), h.shardLo(s+1))
			}
			if sh.lo != prev+1 && sh.lo != 0 {
				t.Errorf("ras=%d shards=%d: shard %d not contiguous", tc.ras, tc.shards, s)
			}
			if size := sh.hi - sh.lo; size < tc.ras/tc.want || size > tc.ras/tc.want+1 {
				t.Errorf("ras=%d shards=%d: shard %d has %d RAs, want balanced", tc.ras, tc.shards, s, size)
			}
			prev = sh.hi - 1
		}
		if h.shards[len(h.shards)-1].hi != tc.ras {
			t.Errorf("ras=%d shards=%d: last shard ends at %d", tc.ras, tc.shards, h.shards[len(h.shards)-1].hi)
		}
		for ra := 0; ra < tc.ras; ra++ {
			sh := h.shardFor(ra)
			if ra < sh.lo || ra >= sh.hi {
				t.Errorf("ras=%d shards=%d: RA %d routed to shard [%d,%d)", tc.ras, tc.shards, ra, sh.lo, sh.hi)
			}
		}
		if _, err := NewShardedHub("127.0.0.1:0", 2, 4, 0); err == nil {
			t.Error("zero shards should fail")
		}
		if err := h.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

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
// per-shard routing delivered the right column to the right RA and the
// collect merge placed every report at its RA's index.
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

// TestShardedBroadcastCollectRouting proves the accept-demux wiring at 64
// RAs for shard counts 1, 2, 4, and 5 (uneven split): every RA receives
// exactly its own coordination column and every report lands at its RA's
// index, with a mixed JSON/binary fleet.
func TestShardedBroadcastCollectRouting(t *testing.T) {
	const ras, slices, periods = 64, 2, 3
	for _, shards := range []int{1, 2, 4, 5} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h, err := NewShardedHub("127.0.0.1:0", slices, ras, shards)
			if err != nil {
				t.Fatal(err)
			}
			runEchoRounds(t, h, slices, ras, periods)
		})
	}
}

// TestShardedRoutingAt1024RAs is the remote-scaling smoke: 1024 concurrent
// agent connections against a 4-shard hub, every column routed correctly.
func TestShardedRoutingAt1024RAs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-connection scaling test skipped in -short mode")
	}
	const ras, slices, periods = 1024, 2, 2
	h, err := NewShardedHub("127.0.0.1:0", slices, ras, 4)
	if err != nil {
		t.Fatal(err)
	}
	runEchoRounds(t, h, slices, ras, periods)
}

// TestMixedCodecPeers pins the register-time negotiation: a JSON agent and
// a binary agent serve the same run, the hub answers each in its own codec,
// and both the hub's and the clients' wire stats record the split.
func TestMixedCodecPeers(t *testing.T) {
	h, err := NewShardedHub("127.0.0.1:0", 1, 2, 2)
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

// TestDuplicateAndWrongShardReports pins the report-routing hygiene of the
// sharded hub: a report naming an RA outside its connection's shard is
// dropped at the shard reader (never reaching another shard's collect
// buffers), and a duplicate report for an already-collected period is
// discarded by the next collect — under both codecs, since binary reports
// decode into recycled buffers.
func TestDuplicateAndWrongShardReports(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			// Two RAs over two shards: shard 0 owns RA 0, shard 1 owns RA 1.
			h, err := NewShardedHub("127.0.0.1:0", 1, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = h.Shutdown() }()

			// RA 0 is a hand-driven connection so the test can forge frames.
			rogue, err := net.Dial("tcp", h.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer rogue.Close()
			forge := newMsgWriter(rogue, codec, nil)
			if err := forge.write(Envelope{Type: MsgRegister, RA: 0}); err != nil {
				t.Fatal(err)
			}
			c1, err := DialAgentCodec(h.Addr(), 1, testTimeout, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			if err := h.WaitRegistered(testTimeout); err != nil {
				t.Fatal(err)
			}

			// Period 0, in order on RA 0's conn: a report claiming shard 1's RA
			// (wrong shard — must not overwrite RA 1's slot), the real report, and
			// a burst of duplicates of it. The burst keeps RA 0's reader decoding
			// into recycled buffers while the collector copies the real report
			// out, which the race detector watches.
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

			// Period 1 flushes the stranded duplicates (their stale period is
			// dropped during this collect) and proves the conn still serves honest reports.
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

			stats := h.Stats()
			if stats.WrongShard != 1 {
				t.Errorf("WrongShard = %d, want 1", stats.WrongShard)
			}
			if stats.ReportsDropped != 1+dups { // wrong-shard + stale duplicates
				t.Errorf("ReportsDropped = %d, want %d", stats.ReportsDropped, 1+dups)
			}
		})
	}
}

// TestSpoofedRAReportDropped pins that a connection files reports only for
// the RA it registered as, also inside its own shard: at one shard, a
// report a conn registered as RA 0 sends for RA 1 must neither fill RA 1's
// collect slot (which would drop RA 1's honest report as a duplicate) nor
// move RA 1's last reported period, which sets its resume frame.
func TestSpoofedRAReportDropped(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			h, err := NewHub("127.0.0.1:0", 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = h.Shutdown() }()
			rogue, err := net.Dial("tcp", h.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer rogue.Close()
			forge := newMsgWriter(rogue, codec, nil)
			if err := forge.write(Envelope{Type: MsgRegister, RA: 0}); err != nil {
				t.Fatal(err)
			}
			c1, err := DialAgentCodec(h.Addr(), 1, testTimeout, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			if err := h.WaitRegistered(testTimeout); err != nil {
				t.Fatal(err)
			}

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
			for deadline := time.Now().Add(testTimeout); h.Stats().ReportsReceived < 3; {
				if time.Now().After(deadline) {
					t.Fatalf("hub read %d of the rogue conn's 3 reports", h.Stats().ReportsReceived)
				}
				time.Sleep(time.Millisecond)
			}
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
			sh := h.shards[0]
			sh.mu.Lock()
			last := sh.lastReported[1]
			sh.mu.Unlock()
			if last != 0 {
				t.Errorf("RA 1's last reported period = %d, want 0 (a forged report moved it)", last)
			}
			if stats := h.Stats(); stats.ReportsDropped != 2 || stats.WrongShard != 0 {
				t.Errorf("ReportsDropped = %d, WrongShard = %d; want 2 and 0", stats.ReportsDropped, stats.WrongShard)
			}
		})
	}
}
