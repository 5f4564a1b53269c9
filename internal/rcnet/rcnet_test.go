package rcnet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
)

const testTimeout = 5 * time.Second

func TestHubValidation(t *testing.T) {
	if _, err := NewHub("127.0.0.1:0", 0, 1); err == nil {
		t.Error("zero slices should fail")
	}
	if _, err := NewHub("127.0.0.1:0", 1, 0); err == nil {
		t.Error("zero RAs should fail")
	}
}

func TestRegisterBroadcastCollect(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	var wg sync.WaitGroup
	for ra := 0; ra < 2; ra++ {
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			c, err := DialAgent(h.Addr(), ra, testTimeout)
			if err != nil {
				t.Errorf("dial RA %d: %v", ra, err)
				return
			}
			defer c.Close()
			m, err := recvCoordination(c, testTimeout)
			period, z, y := m.Period, m.Z, m.Y
			if err != nil {
				t.Errorf("recv RA %d: %v", ra, err)
				return
			}
			if period != 0 || len(z) != 2 || len(y) != 2 {
				t.Errorf("RA %d got period=%d z=%v y=%v", ra, period, z, y)
				return
			}
			if err := c.Report(0, []float64{-1 - float64(ra), -2 - float64(ra)}, []int{0, 0}, nil); err != nil {
				t.Errorf("report RA %d: %v", ra, err)
			}
		}(ra)
	}

	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	z := [][]float64{{0, 0}, {0, 0}}
	y := [][]float64{{0, 0}, {0, 0}}
	if err := h.Broadcast(0, z, y); err != nil {
		t.Fatal(err)
	}
	reports, err := collect(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if reports[0].Perf[0] != -1 || reports[1].Perf[0] != -2 || reports[0].Perf[1] != -2 || reports[1].Perf[1] != -3 {
		t.Errorf("reports = %v", reports)
	}
}

func TestMalformedFrameDropsAgent(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	conn, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRegistered(300 * time.Millisecond); err == nil {
		t.Error("malformed registration should not register")
	}
}

func TestCollectTimesOutOnSilentAgent(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := h.Broadcast(0, [][]float64{{0}}, [][]float64{{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(h, 0, 200*time.Millisecond); err == nil {
		t.Error("collect should time out when the agent never reports")
	}
}

func TestAgentDisconnectMidRound(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c0, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := DialAgent(h.Addr(), 1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	// RA 1 dies before the round.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the hub notice
	err = h.Broadcast(0, [][]float64{{0, 0}}, [][]float64{{0, 0}})
	if err == nil {
		t.Error("broadcast should fail when an RA is gone")
	}
}

// Regression: a stalled agent (registered but never reading) must not
// head-of-line block Broadcast for healthy RAs. The hub writes outside its
// lock with a write deadline and drops the offender.
func TestBroadcastSurvivesStalledAgent(t *testing.T) {
	const numSlices = 2048 // big frames so the stalled socket fills quickly
	h, err := NewHub("127.0.0.1:0", numSlices, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.writeTimeout = 150 * time.Millisecond

	// RA 0 is healthy and keeps draining coordination messages.
	c0, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	received := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := c0.Recv(time.Second); err != nil {
				received <- n
				return
			}
			n++
		}
	}()

	// RA 1 registers and then never reads.
	stalled, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := writeMsg(stalled, Envelope{Type: MsgRegister, RA: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	z := make([][]float64, numSlices)
	y := make([][]float64, numSlices)
	for i := range z {
		z[i] = []float64{0.123456789, 0.987654321}
		y[i] = []float64{0.123456789, 0.987654321}
	}
	var broadcasts int
	var bErr error
	for i := 0; i < 1000 && bErr == nil; i++ {
		bErr = h.Broadcast(i, z, y)
		broadcasts++
	}
	if bErr == nil {
		t.Fatal("broadcast never failed although RA 1 stopped reading")
	}

	// The offender was dropped: the next round fails fast instead of
	// stalling again.
	if err := h.Broadcast(broadcasts, z, y); err == nil {
		t.Error("broadcast should fail once the stalled RA was dropped")
	}

	// The healthy RA received its coordination in every round, including
	// the one where RA 1 timed out.
	n := <-received
	if n != broadcasts {
		t.Errorf("healthy RA received %d/%d coordination messages", n, broadcasts)
	}
}

// A stalled RA written ahead of a healthy one: the hub writes each round in
// RA order, so RA 1's frame waits out RA 0's write timeout, and RA 1 must
// still receive every round.
func TestStalledAgentAheadOfHealthy(t *testing.T) {
	const numSlices = 2048 // big frames so the stalled socket fills quickly
	h, err := NewHub("127.0.0.1:0", numSlices, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.writeTimeout = 150 * time.Millisecond

	// RA 0 registers and then never reads.
	stalled, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := writeMsg(stalled, Envelope{Type: MsgRegister, RA: 0}); err != nil {
		t.Fatal(err)
	}
	// RA 1 is healthy and keeps draining coordination messages.
	c1, err := DialAgent(h.Addr(), 1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	received := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := c1.Recv(time.Second); err != nil {
				received <- n
				return
			}
			n++
		}
	}()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	z := make([][]float64, numSlices)
	for i := range z {
		z[i] = []float64{0.123456789, 0.987654321}
	}
	var broadcasts int
	var bErr error
	for i := 0; i < 1000 && bErr == nil; i++ {
		bErr = h.Broadcast(i, z, z)
		broadcasts++
	}
	if bErr == nil {
		t.Fatal("broadcast never failed although RA 0 stopped reading")
	}
	if !strings.Contains(bErr.Error(), "RA 0:") {
		t.Errorf("failing round's error %q does not name RA 0", bErr)
	}

	start := time.Now()
	if err := h.Broadcast(broadcasts, z, z); err == nil {
		t.Error("broadcast should fail once the stalled RA was dropped")
	}
	if d := time.Since(start); d >= h.writeTimeout {
		t.Errorf("round after the drop took %v, want it to fail before the %v write timeout", d, h.writeTimeout)
	}
	if n := <-received; n != broadcasts {
		t.Errorf("healthy RA received %d/%d coordination messages", n, broadcasts)
	}

	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- h.Broadcast(broadcasts+1, z, z) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("broadcast after Shutdown should fail")
		}
	case <-time.After(testTimeout):
		t.Fatal("broadcast after Shutdown blocked")
	}
}

// Regression: an agent reconnecting after WaitRegistered has returned must
// still be served. The buffered registration channel can be full of stale
// notifications; the hub used to block its per-connection goroutine on the
// send, so the reconnected agent's reports were never pumped.
func TestReconnectAfterWaitRegistered(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	dial := func() *AgentClient {
		t.Helper()
		c, err := DialAgent(h.Addr(), 0, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	grid := [][]float64{{0}}
	waitConnected := func(period int) {
		t.Helper()
		deadline := time.Now().Add(testTimeout)
		for {
			if err := h.Broadcast(period, grid, grid); err == nil {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("agent never became usable: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDisconnected := func() {
		t.Helper()
		deadline := time.Now().Add(testTimeout)
		for h.Broadcast(-1, grid, grid) == nil {
			if time.Now().After(deadline) {
				t.Fatal("hub never noticed the disconnect")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	c0 := dial()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	_ = c0.Close()
	waitDisconnected()

	// First reconnect fills the (capacity-1) registration channel that
	// nobody drains any more.
	c1 := dial()
	waitConnected(1)
	_ = c1.Close()
	waitDisconnected()

	// Second reconnect hits the full channel. It must still get a working
	// read loop: coordination in, perf report out, Collect succeeds.
	c2 := dial()
	defer c2.Close()
	waitConnected(2)
	period := -1
	for period != 2 { // skip frames from earlier rounds
		m, err := recvCoordination(c2, testTimeout)
		p := m.Period
		if err != nil {
			t.Fatalf("reconnected agent got no coordination: %v", err)
		}
		period = p
	}
	if err := c2.Report(period, []float64{-1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	reports, err := collect(h, period, testTimeout)
	if err != nil {
		t.Fatalf("reconnected agent's report was never pumped: %v", err)
	}
	if reports[0].Perf[0] != -1 {
		t.Errorf("perf = %v, want [[-1]]", reports)
	}
}

// collect waits for every RA's report of period, as the remote engine does,
// into fresh envelopes indexed by RA.
func collect(h *Hub, period int, timeout time.Duration) ([]Envelope, error) {
	out, got := make([]Envelope, h.numRAs), make([]bool, h.numRAs)
	_, err := h.CollectReportsInto(period, timeout, out, got)
	return out, err
}

// recvCoordination is Recv of a frame that must be a coordination message.
func recvCoordination(c *AgentClient, timeout time.Duration) (Envelope, error) {
	m, err := c.Recv(timeout)
	if err == nil && m.Type != MsgCoordination {
		err = fmt.Errorf("got a %s frame, want coordination", m.Type)
	}
	return m, err
}

// taroPolicy returns a deterministic queue-proportional policy over env.
func taroPolicy(env *netsim.RAEnv) rl.Agent {
	return rl.AgentFunc(func([]float64) []float64 {
		act, err := baseline.TARO(env.QueueLens(), netsim.NumResources)
		if err != nil {
			return make([]float64, env.ActionDim())
		}
		return act
	})
}

func testEnv(t *testing.T, seed int64) *netsim.RAEnv {
	t.Helper()
	envCfg := netsim.DefaultExperimentConfig()
	envCfg.TrainCoordRandom = false
	envCfg.Seed = seed
	env, err := netsim.New(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Reset()
	return env
}

// TestReportCarriesIntervalRecords verifies that RunAgent attaches one
// IntervalRecord per interval and that the records are consistent with the
// summary report: per-slice perf sums to the period perf exactly and the
// final queue snapshot matches.
func TestReportCarriesIntervalRecords(t *testing.T) {
	const numSlices = 2
	h, err := NewHub("127.0.0.1:0", numSlices, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	env := testEnv(t, 3)
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		if err := RunAgent(c, env, taroPolicy(env), testTimeout); err != nil {
			t.Errorf("agent: %v", err)
		}
	}()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	z := [][]float64{{-50}, {-50}}
	y := [][]float64{{0}, {0}}
	if err := h.Broadcast(0, z, y); err != nil {
		t.Fatal(err)
	}
	reports, err := collect(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	T := env.Config().T
	if len(rep.Intervals) != T {
		t.Fatalf("report has %d interval records, want %d", len(rep.Intervals), T)
	}
	sums := make([]float64, numSlices)
	for tt, rec := range rep.Intervals {
		if len(rec.Perf) != numSlices || len(rec.Queues) != numSlices || len(rec.Effective) != numSlices {
			t.Fatalf("interval %d record shapes: perf=%d queues=%d eff=%d, want %d",
				tt, len(rec.Perf), len(rec.Queues), len(rec.Effective), numSlices)
		}
		for i := range rec.Effective {
			if len(rec.Effective[i]) != netsim.NumResources {
				t.Fatalf("interval %d slice %d has %d resources, want %d",
					tt, i, len(rec.Effective[i]), netsim.NumResources)
			}
		}
		for i := 0; i < numSlices; i++ {
			sums[i] += rec.Perf[i]
		}
	}
	for i := 0; i < numSlices; i++ {
		if sums[i] != rep.Perf[i] {
			t.Errorf("slice %d: interval perf sums to %v, summary reports %v", i, sums[i], rep.Perf[i])
		}
	}
	last := rep.Intervals[T-1]
	for i := 0; i < numSlices; i++ {
		if last.Queues[i] != rep.Queues[i] {
			t.Errorf("slice %d: final interval queue %d, summary queue %d", i, last.Queues[i], rep.Queues[i])
		}
	}
	_ = h.Shutdown()
	wg.Wait()
}

// TestReadMsgBoundsFrameDuringRead proves an endless newline-free frame is
// rejected at the maxLineBytes bound instead of buffering until OOM.
func TestReadMsgBoundsFrameDuringRead(t *testing.T) {
	// An infinite reader that never emits a newline.
	junk := readerFunc(func(p []byte) (int, error) {
		for i := range p {
			p[i] = 'x'
		}
		return len(p), nil
	})
	if _, err := readMsg(bufio.NewReaderSize(junk, 64*1024)); err == nil {
		t.Fatal("oversized frame should fail")
	} else if !strings.Contains(err.Error(), "frame too large") {
		t.Errorf("error %q should mention the frame bound", err)
	}
	// A frame just under the bound still parses.
	pad := strings.Repeat(" ", 1024)
	frame := `{"type":"register","ra":3}` + pad + "\n"
	m, err := readMsg(bufio.NewReader(strings.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgRegister || m.RA != 3 {
		t.Errorf("parsed %+v, want register ra=3", m)
	}
}

// writeMsg sends one envelope as a single JSON line.
func writeMsg(w io.Writer, e Envelope) error {
	return newMsgWriter(w, CodecJSON, nil).write(e)
}

// readMsg reads one frame (either codec) off br.
func readMsg(br *bufio.Reader) (Envelope, error) {
	var e Envelope
	err := (&msgReader{br: br}).readInto(&e)
	return e, err
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
