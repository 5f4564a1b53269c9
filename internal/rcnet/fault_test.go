package rcnet

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test timeout expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReRegistrationSupersedes pins the fault-tolerant registration
// contract: a second registration for an RA is not rejected — it replaces
// the stale connection (which the hub closes) and the new connection
// serves the next round. This is what lets a restarted agent rejoin
// immediately instead of waiting for the old socket to hit a write
// timeout.
func TestReRegistrationSupersedes(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c1, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	c2, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "supersede", func() bool { return h.Stats().Superseded >= 1 })

	// The stale connection was closed by the hub.
	if _, err := c1.Recv(testTimeout); err == nil {
		t.Error("superseded connection should be closed, not served")
	}
	// The new connection serves a full round.
	grid := [][]float64{{0}}
	if err := h.Broadcast(0, grid, grid); err != nil {
		t.Fatal(err)
	}
	m, err := recvCoordination(c2, testTimeout)
	p := m.Period
	if err != nil {
		t.Fatalf("re-registered agent got no coordination: %v", err)
	}
	if p != 0 {
		t.Fatalf("period = %d, want 0", p)
	}
	if err := c2.Report(0, []float64{-7}, nil, nil); err != nil {
		t.Fatal(err)
	}
	reports, err := collect(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Perf[0] != -7 {
		t.Errorf("perf = %v, want [[-7]]", reports)
	}
	if s := h.Stats(); s.Reconnects < 1 {
		t.Errorf("stats report %d reconnects, want >= 1", s.Reconnects)
	}
}

// TestRedialChurnRecovers hammers the registration path with concurrent
// dial/close churn while the liveness reaper, broadcasts, and stats
// readers run — primarily a -race exercise of supersede/drop/reap — and
// then requires that a fresh heartbeating agent can still complete a full
// round.
func TestRedialChurnRecovers(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.SetLiveness(200 * time.Millisecond)

	grid := [][]float64{{0}}
	stopC := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopC:
					return
				default:
				}
				c, err := DialAgent(h.Addr(), 0, time.Second)
				if err != nil {
					continue
				}
				_ = c.Close()
			}
		}()
	}
	churnDeadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(churnDeadline) {
		_ = h.Broadcast(0, grid, grid) // races with churn by design; errors expected
		_, _, _ = h.Liveness()
		_ = h.Stats()
		time.Sleep(time.Millisecond)
	}
	close(stopC)
	wg.Wait()

	// Recovery: a fresh agent must win the RA slot and complete a round.
	// Stale registrations from the churn can briefly supersede it, so the
	// whole dial-and-serve attempt retries.
	deadline := time.Now().Add(testTimeout)
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			t.Fatal("no agent completed a round after churn")
		}
		c, err := DialAgent(h.Addr(), 0, time.Second)
		if err != nil {
			continue
		}
		stop := c.StartHeartbeat(25 * time.Millisecond)
		ok := func() bool {
			for time.Now().Before(deadline) {
				// The broadcast may land on a conn a stale registration is
				// about to supersede, so a recv timeout just means "try the
				// round again"; only a real conn error warrants a redial.
				_ = h.Broadcast(9, grid, grid)
				m, err := recvCoordination(c, 200*time.Millisecond)
				p := m.Period
				if err != nil {
					var nerr net.Error
					if errors.As(err, &nerr) && nerr.Timeout() {
						continue
					}
					return false // conn lost to a stale supersede; redial
				}
				if p != 9 {
					continue
				}
				if err := c.Report(9, []float64{-9}, nil, nil); err != nil {
					return false
				}
				reports, err := collect(h, 9, testTimeout)
				if err != nil {
					return false
				}
				if reports[0].Perf[0] != -9 {
					t.Fatalf("perf = %v, want [[-9]]", reports)
				}
				return true
			}
			return false
		}()
		stop()
		_ = c.Close()
		if ok {
			return
		}
	}
}

// TestWaitRegisteredReportsFinalCount pins the S2 fix: the timeout error
// must carry the registration count at the moment of the timeout, not a
// count snapshotted before the final wait.
func TestWaitRegisteredReportsFinalCount(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	for ra := 0; ra < 2; ra++ {
		c, err := DialAgent(h.Addr(), ra, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "two registrations", func() bool {
		_, reg, _ := h.Liveness()
		return reg == 2
	})
	err = h.WaitRegistered(200 * time.Millisecond)
	if err == nil {
		t.Fatal("WaitRegistered should time out with one RA missing")
	}
	if !strings.Contains(err.Error(), "2/3") {
		t.Errorf("timeout error %q should report the final count 2/3", err)
	}
}

// TestDialAgentClearsHandshakeDeadline pins the S3 fix: the write deadline
// that bounds the register frame must be cleared once the handshake is
// done, or the first report after an idle stretch fails spuriously.
func TestDialAgentClearsHandshakeDeadline(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c, err := DialAgent(h.Addr(), 0, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // well past the handshake deadline
	if err := c.Report(0, []float64{1}, nil, nil); err != nil {
		t.Fatalf("report after an idle stretch: %v (stale handshake write deadline?)", err)
	}
	reports, err := collect(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Perf[0] != 1 {
		t.Errorf("perf = %v, want [[1]]", reports)
	}
}

// TestHeartbeatKeepsAgentLiveSilentOneReaped covers the liveness plane: a
// heartbeating agent stays registered and live while a silent one is
// reaped, and both sides count the heartbeats.
func TestHeartbeatKeepsAgentLiveSilentOneReaped(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.SetLiveness(500 * time.Millisecond)

	c0, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	stop := c0.StartHeartbeat(50 * time.Millisecond)
	defer stop()
	c1, err := DialAgent(h.Addr(), 1, testTimeout) // never heartbeats
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "silent agent reaped", func() bool { return h.Stats().Reaped >= 1 })
	waitFor(t, "reaped conn dropped", func() bool {
		live, reg, exp := h.Liveness()
		return live == 1 && reg == 1 && exp == 2
	})
	if s := h.Stats(); s.Heartbeats == 0 {
		t.Error("hub counted no heartbeats")
	}
	if s := c0.Stats(); s.HeartbeatsSent == 0 {
		t.Error("client counted no heartbeats sent")
	}
	// The surviving RA is still serviceable via the partial-broadcast path.
	z := [][]float64{{0, 0}}
	if err := h.BroadcastTo(0, z, z, []int{0}); err != nil {
		t.Fatalf("broadcast to the surviving RA: %v", err)
	}
	if m, err := recvCoordination(c0, testTimeout); err != nil || m.Type != MsgCoordination || m.Period != 0 {
		t.Fatalf("surviving RA recv: %s period=%d err=%v", m.Type, m.Period, err)
	}
}

// TestResumeCatchUpReplay is the rcnet half of the resume contract: an
// agent registering into a primed hub receives the coordination history,
// replays it against a fresh deterministic env, and its first live report
// is bit-identical to an agent that lived through all periods — as is the
// re-report a retried broadcast of that period triggers, under either codec.
func TestResumeCatchUpReplay(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) { testResumeCatchUpReplay(t, codec) })
	}
}

func testResumeCatchUpReplay(t *testing.T, codec Codec) {
	const donePeriods = 2
	ref := testEnv(t, 11)
	refPolicy := taroPolicy(ref)
	I := ref.Config().NumSlices

	col := func(p int, base float64) []float64 {
		c := make([]float64, I)
		for i := range c {
			c[i] = base - float64(p*3+i)
		}
		return c
	}
	grid := func(c []float64) [][]float64 {
		g := make([][]float64, len(c))
		for i, v := range c {
			g[i] = []float64{v}
		}
		return g
	}

	// Reference: live through periods 0..donePeriods locally.
	want := newPeriodReport(ref)
	for p := 0; p <= donePeriods; p++ {
		if err := stepPeriod(ref, refPolicy, col(p, -40), col(p, 0), want); err != nil {
			t.Fatal(err)
		}
	}

	h, err := NewHub("127.0.0.1:0", I, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	zs := make([][][]float64, donePeriods)
	ys := make([][][]float64, donePeriods)
	for p := 0; p < donePeriods; p++ {
		zs[p] = grid(col(p, -40))
		ys[p] = grid(col(p, 0))
	}
	if err := h.PrimeResume(donePeriods, zs, ys); err != nil {
		t.Fatal(err)
	}

	env := testEnv(t, 11) // fresh copy of the reference env
	c, err := DialAgentCodec(h.Addr(), 0, testTimeout, codec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var agentErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		agentErr = RunAgent(c, env, taroPolicy(env), testTimeout)
	}()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := h.Broadcast(donePeriods, grid(col(donePeriods, -40)), grid(col(donePeriods, 0))); err != nil {
		t.Fatal(err)
	}
	// The second round re-broadcasts the period just executed (the
	// coordinator's collect retry): the agent must answer from its report
	// buffers without stepping again, so the re-sent report equals the first.
	var first Envelope
	for round, what := range []string{"resumed agent", "re-report"} {
		reports, err := collect(h, donePeriods, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		rep := reports[0]
		if !reflect.DeepEqual(rep.Perf, want.perf) {
			t.Errorf("%s perf %v, want %v", what, rep.Perf, want.perf)
		}
		if !reflect.DeepEqual(rep.Queues, want.queues) {
			t.Errorf("%s queues %v, want %v", what, rep.Queues, want.queues)
		}
		if !reflect.DeepEqual(rep.Intervals, want.intervals) {
			t.Errorf("%s intervals %v, want %v", what, rep.Intervals, want.intervals)
		}
		if round == 0 {
			first = rep
			if err := h.Broadcast(donePeriods, grid(col(donePeriods, -40)), grid(col(donePeriods, 0))); err != nil {
				t.Fatal(err)
			}
		} else if !reflect.DeepEqual(rep, first) {
			t.Errorf("re-report envelope differs from the first:\n got %+v\nwant %+v", rep, first)
		}
	}
	if s := h.Stats(); s.ResumesSent != 1 {
		t.Errorf("stats report %d resume frames, want 1", s.ResumesSent)
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if agentErr != nil {
		t.Errorf("agent: %v", agentErr)
	}
}

// TestResumeFrameCarriesOwnColumns pins the resume frame's content at more
// than one RA, which the TARO-driven replay tests cannot see (TARO ignores
// the coordination): each registering RA receives its own column of every
// logged period, and an RA whose report for the in-flight period the hub
// already read resumes after that period.
func TestResumeFrameCarriesOwnColumns(t *testing.T) {
	const I, J, primed = 2, 3, 2
	val := func(p, i, ra int) float64 { return float64(100*p + 10*i + ra + 1) }
	grid := func(p int, sign float64) [][]float64 {
		g := make([][]float64, I)
		for i := range g {
			g[i] = make([]float64, J)
			for ra := range g[i] {
				g[i][ra] = sign * val(p, i, ra)
			}
		}
		return g
	}
	h, err := NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	if err := h.PrimeResume(primed, [][][]float64{grid(0, 1), grid(1, 1)}, [][][]float64{grid(0, -1), grid(1, -1)}); err != nil {
		t.Fatal(err)
	}
	dial := func(ra, period int) *AgentClient {
		t.Helper()
		c, err := DialAgentCodec(h.Addr(), ra, testTimeout, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		m, err := c.Recv(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != MsgResume || m.Period != period || len(m.ZHist) != period || len(m.YHist) != period {
			t.Fatalf("RA %d: %s at period %d with %d/%d columns, want a resume at %d", ra, m.Type, m.Period, len(m.ZHist), len(m.YHist), period)
		}
		for p := range period {
			for i := range I {
				if want := val(p, i, ra); m.ZHist[p][i] != want || m.YHist[p][i] != -want {
					t.Errorf("RA %d period %d slice %d: resume (z, y) = (%v, %v), want (%v, %v)", ra, p, i, m.ZHist[p][i], m.YHist[p][i], want, -want)
				}
			}
		}
		return c
	}
	clients := make([]*AgentClient, J)
	for ra := range clients {
		clients[ra] = dial(ra, primed)
	}
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := h.Broadcast(primed, grid(primed, 1), grid(primed, -1)); err != nil {
		t.Fatal(err)
	}
	if err := clients[1].Report(primed, make([]float64, I), nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "RA 1's report", func() bool { return h.Stats().ReportsReceived == 1 })
	dial(1, primed+1) // reported the in-flight period: replays through it
	dial(2, primed)
}

// TestCollectKeepsPartialProgressAcrossAttempts pins the retry-path
// collection semantics: a timed-out collect keeps the reports that did
// arrive, a second attempt drains duplicates and stale-period reports
// without letting them overwrite, and completes on the missing RA's
// report. Both codecs run it: the binary reader decodes every frame into a
// recycled buffer, so a collect that kept a reference to that buffer
// instead of copying it out would see the later frames overwrite RA 0.
func TestCollectKeepsPartialProgressAcrossAttempts(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			h, err := NewHub("127.0.0.1:0", 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = h.Shutdown() }()
			c0, err := DialAgentCodec(h.Addr(), 0, testTimeout, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer c0.Close()
			c1, err := DialAgentCodec(h.Addr(), 1, testTimeout, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			if err := h.WaitRegistered(testTimeout); err != nil {
				t.Fatal(err)
			}

			// RA 0 reports promptly; RA 1 stays silent past the first attempt.
			if err := c0.Report(0, []float64{-1}, nil, nil); err != nil {
				t.Fatal(err)
			}
			out := make([]Envelope, 2)
			got := make([]bool, 2)
			n, err := h.CollectReportsInto(0, 300*time.Millisecond, out, got)
			if err == nil {
				t.Fatal("collect should time out with RA 1 silent")
			}
			if n != 1 || !got[0] || got[1] {
				t.Fatalf("after timeout: n=%d got=%v, want partial progress for RA 0 only", n, got)
			}
			if !strings.Contains(err.Error(), "1/2 reports for period 0") {
				t.Errorf("timeout error %q should report 1/2 for period 0", err)
			}

			// Second attempt: RA 0's duplicate re-report (what a retried broadcast
			// triggers) and a stale-period report must both be dropped, then RA 1's
			// report completes the set.
			if err := c0.Report(0, []float64{-99}, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := c0.Report(7, []float64{-77}, nil, nil); err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond) // let both frames queue ahead of RA 1's
			if err := c1.Report(0, []float64{-2}, nil, nil); err != nil {
				t.Fatal(err)
			}
			n, err = h.CollectReportsInto(0, testTimeout, out, got)
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("n = %d, want 2", n)
			}
			if out[0].Perf[0] != -1 {
				t.Errorf("RA 0's report = %v, duplicate must not overwrite the original -1", out[0].Perf)
			}
			if out[1].Perf[0] != -2 {
				t.Errorf("RA 1's report = %v, want -2", out[1].Perf)
			}
			if s := h.Stats(); s.ReportsDropped < 2 {
				t.Errorf("stats report %d dropped reports, want >= 2 (duplicate + stale period)", s.ReportsDropped)
			}
		})
	}
}

// TestPrimeResumeValidation pins PrimeResume's preconditions.
func TestPrimeResumeValidation(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	bad := [][][]float64{{{0}}} // 1 slice, want 2
	if err := h.PrimeResume(1, bad, bad); err == nil {
		t.Error("mis-shaped grids should be rejected")
	}
	okGrid := [][][]float64{{{0}, {0}}}
	if err := h.PrimeResume(2, okGrid, okGrid); err == nil {
		t.Error("period/grid count mismatch should be rejected")
	}
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := h.PrimeResume(1, okGrid, okGrid); err == nil {
		t.Error("priming after an agent registered should be rejected")
	}
}
