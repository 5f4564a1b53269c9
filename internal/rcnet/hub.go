package rcnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connState is the hub's per-connection bookkeeping. The write mutex
// serializes every hub-side frame written to the conn (broadcast, resume,
// shutdown notify), so frames from different hub goroutines can never
// interleave mid-line; lastSeen is refreshed on every frame read from the
// peer and drives the liveness reaper. The frame writer carries the codec
// the peer registered with (JSON until the register frame says otherwise).
type connState struct {
	conn     net.Conn
	wmu      sync.Mutex
	mw       *msgWriter
	lastSeen atomic.Int64 // monotonic-ish unix nanos of the last frame read
}

// send writes one frame under the connection's write mutex with a write
// deadline. The deadline is deliberately not cleared afterwards: every
// writer sets its own before writing.
func (st *connState) send(e Envelope, timeout time.Duration) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	//edgeslice:lockio wmu only serializes this conn's writers and the write is deadline-bounded; a stalled peer delays its own frames, nobody else's
	_ = st.conn.SetWriteDeadline(deadline(st.conn, timeout))
	return st.mw.write(e)
}

// setCodec switches the connection's reply codec once the register frame
// revealed what the peer speaks; taken under the write mutex so it cannot
// interleave with an in-flight frame.
func (st *connState) setCodec(c Codec) {
	st.wmu.Lock()
	st.mw.codec = c
	st.wmu.Unlock()
}

// Hub is the coordinator-side endpoint: it accepts agent registrations,
// broadcasts coordinating information, and collects per-period performance
// reports. One hub serves every RA, as the paper's one performance
// coordinator does: a listener, a conn table and coordination log under one
// lock, a broadcast-writer pool, and a report channel that the one
// coordinator loop drains in arrival order and files by RA index.
//
// Writes to agents are bounded: Broadcast and Shutdown apply a write
// deadline (default 5s) and never hold the hub lock across a network
// write, so one stalled agent cannot head-of-line block the round for
// healthy RAs or deadlock dropConn/Shutdown. A connection that misses its
// write deadline is dropped; the agent must re-register.
//
// The hub survives agent churn: a re-registering RA supersedes its stale
// connection (the old conn is closed, the new one installed) and receives
// a MsgResume frame with its coordination columns for every period
// broadcast so far, letting a restarted agent replay the completed prefix
// and rejoin mid-run. With SetLiveness enabled the hub also reaps
// connections that go silent (no frames, no heartbeats) instead of
// waiting for the next broadcast write timeout.
type Hub struct {
	ln        net.Listener
	numSlices int
	numRAs    int

	writeTimeout time.Duration

	// mu guards the connection state: every accepted conn (so Shutdown can
	// close peers stalled mid-register), the shutdown flag, the liveness
	// timeout, the registered-RA table and the resume state.
	mu           sync.Mutex
	live         map[net.Conn]*connState
	shutdown     bool
	liveTimeout  time.Duration      // 0: liveness reaping disabled
	conns        map[int]*connState // registered RA -> conn
	seenRAs      map[int]bool       // RAs that registered at least once
	lastReported map[int]int        // last period each RA reported
	zLog, yLog   []float64          // flat [period][slice][ra] coordination log
	completed    int

	reports chan *reportBuf // perf reports from the conn readers
	free    chan *reportBuf // decode buffers no reader or collector holds
	bcast   chan bcastJob   // broadcast work for the writer pool
	timer   *time.Timer     // the collect deadline, reused every period

	// bcastMu serializes broadcast enqueues against Shutdown closing the
	// writer pool: producers hold it shared while enqueueing, Shutdown holds
	// it exclusively while closing the queue, so a job is either fully
	// enqueued before the close (and drained by the pool) or rejected with
	// errHubClosed — never stranded.
	bcastMu     sync.RWMutex
	bcastClosed bool

	stats  hubStats
	wire   wireStats
	poolWG sync.WaitGroup

	// BroadcastTo's fan-out scratch, reused by the one coordinator loop.
	bcastErrs []error
	bcastWG   sync.WaitGroup

	registered chan int
	acceptWG   sync.WaitGroup
	readerWG   sync.WaitGroup
	reaperWG   sync.WaitGroup
	closed     chan struct{}
	closeOnce  sync.Once
}

// reportBuf is a decode target a conn reader fills and the collector
// copies out of before handing it back to the free list.
type reportBuf struct {
	env      Envelope
	frameLen int // the largest frame it ever held
}

// maxRecycledFrame keeps the buffer of a hostile near-maxLineBytes frame off
// the free list, so it cannot pin megabytes per RA.
const maxRecycledFrame = maxLineBytes / 4

// bcastJob is one RA's coordination send, executed by a pool writer. The
// worker builds the RA's column from the shared read-only grids, writes it
// deadline-bounded, stores any failure in the caller's slot, and signals
// the caller's WaitGroup.
type bcastJob struct {
	st     *connState
	ra     int
	period int
	z, y   [][]float64 // full [slice][ra] grids, read-only
	err    *error      // caller's per-RA error slot (exactly one writer)
	wg     *sync.WaitGroup
}

// broadcastWriters is the size of the broadcast-writer pool, capped by the
// RA count.
const broadcastWriters = 4

// NewHub listens on addr (e.g. "127.0.0.1:0") for numRAs agents managing
// numSlices slices each.
func NewHub(addr string, numSlices, numRAs int) (*Hub, error) {
	if numSlices <= 0 || numRAs <= 0 {
		return nil, fmt.Errorf("rcnet: invalid hub dims slices=%d ras=%d", numSlices, numRAs)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rcnet: listen %s: %w", addr, err)
	}
	h := &Hub{
		ln:           ln,
		numSlices:    numSlices,
		numRAs:       numRAs,
		writeTimeout: defaultWriteTimeout,
		live:         make(map[net.Conn]*connState, numRAs),
		conns:        make(map[int]*connState, numRAs),
		seenRAs:      make(map[int]bool, numRAs),
		lastReported: make(map[int]int, numRAs),
		// Capacity covers the worst case — one in-flight frame per RA — so
		// readers never block a collect and enqueues never block a broadcast.
		reports: make(chan *reportBuf, numRAs),
		// One buffer per reader, per queued report and for the collector: a
		// healthy hub never allocates one once its first frames sized them.
		free:       make(chan *reportBuf, 2*numRAs+1),
		bcast:      make(chan bcastJob, numRAs),
		timer:      time.NewTimer(time.Hour),
		registered: make(chan int, numRAs),
		closed:     make(chan struct{}),
	}
	h.timer.Stop()
	for range cap(h.free) {
		h.free <- new(reportBuf)
	}
	for range min(broadcastWriters, numRAs) {
		h.poolWG.Add(1)
		go h.broadcastWorker()
	}
	h.acceptWG.Add(1)
	go h.acceptLoop()
	return h, nil
}

// NewShardedHub is NewHub for shards == 1 and an error for any other
// count. It remains only for the bench module's remote workloads, which
// still pass a shard count, and is deleted with ROADMAP item 3's bench half.
func NewShardedHub(addr string, numSlices, numRAs, shards int) (*Hub, error) {
	if shards != 1 {
		return nil, fmt.Errorf("rcnet: shard count must be 1, got %d", shards)
	}
	return NewHub(addr, numSlices, numRAs)
}

// defaultWriteTimeout bounds how long a Broadcast or Shutdown write may
// block on one agent's connection before the hub drops it.
const defaultWriteTimeout = 5 * time.Second

// Collection sentinels, turned into caller-facing errors by
// CollectReportsInto.
var (
	errCollectTimeout = errors.New("rcnet: collect timeout")
	errHubClosed      = errors.New("rcnet: hub closed")
)

// Addr returns the listening address (useful with port 0).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// NumSlices returns the per-RA slice count the hub was sized for.
func (h *Hub) NumSlices() int { return h.numSlices }

// NumRAs returns the number of agents the hub coordinates.
func (h *Hub) NumRAs() int { return h.numRAs }

// SetLiveness enables proactive liveness reaping: a connection that
// delivers no frame (reports or heartbeats) for longer than timeout is
// closed, which drives the normal drop/re-register path immediately
// instead of waiting for the next broadcast to hit its write deadline.
// One reaper covers every accepted conn, registered or still mid-register.
// Only enable it when the agents send heartbeats (AgentClient
// StartHeartbeat) at a comfortably shorter interval — an agent that is
// silently computing a long period would otherwise be reaped mid-work.
// Call before agents connect; idempotent per hub.
func (h *Hub) SetLiveness(timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	h.mu.Lock()
	start := h.liveTimeout == 0 && !h.shutdown
	h.liveTimeout = timeout
	h.mu.Unlock()
	if start {
		h.reaperWG.Add(1)
		go h.reapLoop(timeout)
	}
}

// Liveness reports the hub's agent liveness: how many registered RAs
// delivered a frame within the liveness window (all of them when liveness
// reaping is disabled), how many are registered at all, and how many the
// hub expects.
func (h *Hub) Liveness() (liveRAs, registeredRAs, expected int) {
	now := time.Now().UnixNano()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.liveTimeout <= 0 {
		return len(h.conns), len(h.conns), h.numRAs
	}
	for _, st := range h.conns {
		if now-st.lastSeen.Load() <= int64(h.liveTimeout) {
			liveRAs++
		}
	}
	return liveRAs, len(h.conns), h.numRAs
}

// reapLoop periodically closes the connections whose peers went silent.
// The scan interval divides the liveness timeout so a dead conn is reaped
// at most ~1.25 timeouts after its last frame.
func (h *Hub) reapLoop(timeout time.Duration) {
	defer h.reaperWG.Done()
	interval := timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.closed:
			return
		case <-ticker.C:
			h.reapOnce(time.Now().UnixNano(), timeout)
		}
	}
}

// reapOnce collects the silent connections under the lock and closes them
// outside it; closing unblocks each conn's reader goroutine, which abandons
// the handshake or, for a registered conn, runs the usual dropConn path.
func (h *Hub) reapOnce(now int64, timeout time.Duration) {
	h.mu.Lock()
	var victims []*connState
	for _, st := range h.live {
		if now-st.lastSeen.Load() > int64(timeout) {
			victims = append(victims, st)
		}
	}
	h.mu.Unlock()
	for _, st := range victims {
		h.stats.reaped.Add(1)
		_ = st.conn.Close()
	}
}

func (h *Hub) acceptLoop() {
	defer h.acceptWG.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.readerWG.Add(1)
		go h.handleConn(conn)
	}
}

// handleConn performs registration — detecting the peer's codec from its
// register frame — then pumps reports into the hub's collect channel.
func (h *Hub) handleConn(conn net.Conn) {
	defer h.readerWG.Done()
	st := &connState{conn: conn, mw: newMsgWriter(conn, CodecJSON, &h.wire)}
	st.lastSeen.Store(time.Now().UnixNano())
	// Track the connection before any blocking read so Shutdown can close
	// it and unblock this goroutine even if the peer stalls mid-register.
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	h.live[conn] = st
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.live, conn)
		h.mu.Unlock()
	}()
	mr := newMsgReader(conn, &h.wire)
	var msg Envelope
	if err := mr.readInto(&msg); err != nil || msg.Type != MsgRegister || msg.RA < 0 || msg.RA >= h.numRAs {
		_ = conn.Close()
		return
	}
	st.lastSeen.Store(time.Now().UnixNano())
	// The register frame's codec decides how the hub answers this
	// connection; JSON peers that never heard of the binary codec keep
	// working unchanged.
	st.setCodec(mr.lastCodec)
	h.stats.regsByCodec[mr.lastCodec].Add(1)

	// Registration is a two-step handshake so the resume frame is on the
	// wire before the conn becomes broadcastable: (1) snapshot the catch-up
	// state, (2) write the resume frame outside the lock, (3) re-take the
	// lock, verify the snapshot is still current, and install the conn. If
	// a period completed between (1) and (3) the snapshot is stale — the
	// conn is closed and the agent redials into a clean handshake. Without
	// the ordering, the executor could broadcast the in-flight period to
	// the new conn before its resume frame, and the agent would step it
	// against an un-replayed environment.
	h.mu.Lock()
	resume := h.resumeFrameLocked(msg.RA)
	h.mu.Unlock()
	if resume.Period > 0 {
		if err := st.send(resume, h.writeTimeout); err != nil {
			_ = conn.Close()
			return
		}
		h.stats.resumesSent.Add(1)
	}
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	if h.resumePeriodLocked(msg.RA) != resume.Period {
		h.mu.Unlock()
		_ = conn.Close() // raced with a period completing; agent must redial
		return
	}
	// Re-registration supersedes: the stale conn (a half-dead socket the
	// hub has not noticed yet) is replaced immediately instead of locking
	// the returning agent out until the next broadcast write timeout.
	old := h.conns[msg.RA]
	h.conns[msg.RA] = st
	reconnect := h.seenRAs[msg.RA]
	h.seenRAs[msg.RA] = true
	h.mu.Unlock()
	if old != nil && old.conn != conn {
		h.stats.superseded.Add(1)
		_ = old.conn.Close()
	}
	h.stats.registrations.Add(1)
	if reconnect {
		h.stats.reconnects.Add(1)
	}
	// Wake any WaitRegistered caller without ever blocking: when agents
	// reconnect after WaitRegistered has already returned, the buffered
	// channel fills with notifications nobody drains, and a blocking send
	// would park this goroutine before its read loop starts, leaving the
	// reconnected agent permanently unserved (and the goroutine leaked).
	// The channel is only a wakeup signal — WaitRegistered recounts the
	// conn table itself — so on a full channel the oldest entry is
	// dropped, and losing a notification merely delays the next recount.
	select {
	case h.registered <- msg.RA:
	default:
		select {
		case <-h.registered:
		default:
		}
		select {
		case h.registered <- msg.RA:
		default:
		}
	}
	var buf *reportBuf // from the free list; a report hands it to the collector
	for {
		if buf == nil {
			select {
			case buf = <-h.free:
			default:
				buf = new(reportBuf) // only while more frames are in flight than the list was filled for
			}
		}
		err := mr.readInto(&buf.env)
		buf.frameLen = max(buf.frameLen, mr.frameLen)
		if err != nil {
			h.dropConn(msg.RA, st)
			return
		}
		m := &buf.env
		st.lastSeen.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgPerfReport:
			h.stats.reportsReceived.Add(1)
			// A conn reports only for the RA it registered as; a report
			// naming another RA (a buggy or malicious peer) is dropped here,
			// before it can fill that RA's collect slot or move its resume
			// frame.
			if m.RA != msg.RA {
				h.stats.reportsDropped.Add(1)
				continue
			}
			h.mu.Lock()
			if last, ok := h.lastReported[m.RA]; !ok || m.Period > last {
				h.lastReported[m.RA] = m.Period
			}
			h.mu.Unlock()
			select {
			case h.reports <- buf:
				buf = nil
			case <-h.closed:
				return
			}
		case MsgHeartbeat:
			h.stats.heartbeats.Add(1)
		default:
			// Ignore unexpected frames.
		}
	}
}

// WaitRegistered blocks until every RA is simultaneously registered or the
// timeout expires. The conn table is the ground truth; the channel (plus
// a coarse ticker, in case a wakeup was dropped) only paces the recounts.
func (h *Hub) WaitRegistered(timeout time.Duration) error {
	count := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.conns)
	}
	deadlineC := time.After(timeout)
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		if count() >= h.numRAs {
			return nil
		}
		select {
		case <-h.registered:
		case <-ticker.C:
		case <-deadlineC:
			// Recount: registrations that landed during the final wait must
			// not be misreported as missing.
			if n := count(); n >= h.numRAs {
				return nil
			} else {
				return fmt.Errorf("rcnet: %d/%d agents registered before timeout", n, h.numRAs)
			}
		case <-h.closed:
			return errHubClosed
		}
	}
}

// FinishPeriod marks period p fully completed (collected, merged, and
// ADMM-updated): re-registering agents must replay through it. The remote
// execution engine calls it after every period.
func (h *Hub) FinishPeriod(p int) {
	h.mu.Lock()
	h.completed = max(h.completed, p+1)
	h.mu.Unlock()
}

// PrimeResume seeds the hub with the coordination history of a previous
// run segment — periods fully completed before a coordinator restart, with
// zs/ys the [period][slice][ra] grids that produced them — so agents
// registering into the resumed run receive the full replay. It must be
// called before any agent registers.
func (h *Hub) PrimeResume(periods int, zs, ys [][][]float64) error {
	if periods < 0 || len(zs) != periods || len(ys) != periods {
		return fmt.Errorf("rcnet: prime resume with %d periods but %d/%d grids", periods, len(zs), len(ys))
	}
	for p := 0; p < periods; p++ {
		if len(zs[p]) != h.numSlices || len(ys[p]) != h.numSlices {
			return fmt.Errorf("rcnet: prime resume period %d has %d/%d slices, want %d", p, len(zs[p]), len(ys[p]), h.numSlices)
		}
		for i := 0; i < h.numSlices; i++ {
			if len(zs[p][i]) != h.numRAs || len(ys[p][i]) != h.numRAs {
				return fmt.Errorf("rcnet: prime resume period %d slice %d has %d/%d RAs, want %d", p, i, len(zs[p][i]), len(ys[p][i]), h.numRAs)
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.seenRAs) > 0 {
		return errors.New("rcnet: prime resume after an agent registered; prime immediately after NewHub")
	}
	if h.completed != 0 || len(h.zLog) != 0 {
		return errors.New("rcnet: hub already holds coordination history")
	}
	h.completed = periods
	for p := 0; p < periods; p++ {
		h.zLog, h.yLog = h.appendGrid(h.zLog, zs[p]), h.appendGrid(h.yLog, ys[p])
	}
	return nil
}

// Broadcast sends each RA its coordination column for the period. z and y
// are [slice][ra] grids.
//
// Connections are snapshotted under the hub lock and written by the
// writer pool outside it with a write deadline, so a stalled agent delays
// the round by at most the write timeout, never blocks healthy RAs'
// writes, and never wedges callers that need the hub lock (dropConn,
// Shutdown). A connection that fails or times out is dropped and reported;
// the remaining RAs still receive their coordination. Broadcast is
// intended to be called from a single coordinator loop, not concurrently.
func (h *Hub) Broadcast(period int, z, y [][]float64) error {
	// Fail fast before writing anything when an RA is missing: a caller of
	// the full-round broadcast treats a partial round as fatal, and healthy
	// agents must not receive a round the caller will abandon.
	h.mu.Lock()
	for ra := range h.numRAs {
		if _, ok := h.conns[ra]; !ok {
			h.mu.Unlock()
			return fmt.Errorf("rcnet: RA %d not connected", ra)
		}
	}
	h.mu.Unlock()
	ras := make([]int, h.numRAs)
	for ra := range ras {
		ras[ra] = ra
	}
	return h.BroadcastTo(period, z, y, ras)
}

// BroadcastTo sends the period's coordination columns to a subset of RAs —
// the retry path re-broadcasts an in-flight period only to the RAs whose
// reports are still missing, so agents that already stepped it are never
// asked to step it twice. The sends are fanned out to the writer pool. An
// RA that is not currently registered, or whose write fails, contributes
// to the returned error (first in ras order, for determinism); the others
// still receive their columns.
func (h *Hub) BroadcastTo(period int, z, y [][]float64, ras []int) error {
	if len(z) != h.numSlices || len(y) != h.numSlices {
		return fmt.Errorf("rcnet: coordination grids have %d/%d slices, want %d", len(z), len(y), h.numSlices)
	}
	for _, ra := range ras {
		if ra < 0 || ra >= h.numRAs {
			return fmt.Errorf("rcnet: broadcast to invalid RA %d", ra)
		}
	}
	h.recordCoordination(period, z, y)
	h.bcastErrs = resize(h.bcastErrs, len(ras))
	errs, wg := h.bcastErrs, &h.bcastWG
	clear(errs)
	h.bcastMu.RLock()
	for k, ra := range ras {
		h.mu.Lock()
		st, ok := h.conns[ra]
		h.mu.Unlock()
		switch {
		case !ok:
			errs[k] = fmt.Errorf("rcnet: RA %d not connected", ra)
		case h.bcastClosed:
			errs[k] = errHubClosed
		default:
			wg.Add(1)
			//edgeslice:lockio the send cannot block: the queue has capacity for one job per RA and a broadcast enqueues at most one job per RA, while bcastMu (held shared) pins the queue open
			h.bcast <- bcastJob{st: st, ra: ra, period: period, z: z, y: y, err: &errs[k], wg: wg}
		}
	}
	h.bcastMu.RUnlock()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CollectReportsInto waits for a perf report from every RA for the given
// period into out, indexed by RA, with the per-interval records agents
// attach (see IntervalRecord). out and got persist partial progress across
// collection attempts, so a retried period
// keeps the reports that already arrived and waits only for the missing
// RAs. It returns how many RAs have reported in total (across this and
// previous attempts); a nil error means all of them. Reports for other
// periods, duplicates, and reports from out-of-range RAs are discarded and
// counted in the stats.
//
// Each report is copied into out[ra], reusing out[ra]'s slices: the hub
// keeps no reference into out, and a caller passing the same out every
// period collects without allocating but must copy out what it keeps past
// the next collect into it. One coordinator loop calls it, never two at
// once: it drains the report channel on that goroutine with the hub's
// reused timer while the conn readers decode.
func (h *Hub) CollectReportsInto(period int, timeout time.Duration, out []Envelope, got []bool) (int, error) {
	if len(out) != h.numRAs || len(got) != h.numRAs {
		return 0, fmt.Errorf("rcnet: collect buffers sized %d/%d, want %d", len(out), len(got), h.numRAs)
	}
	n, err := h.collectInto(period, timeout, out, got)
	if errors.Is(err, errCollectTimeout) {
		return n, fmt.Errorf("rcnet: %d/%d reports for period %d before timeout", n, h.numRAs, period)
	}
	return n, err // nil, hub closed, or a malformed report
}

// Shutdown notifies agents, closes all connections and the listener, and
// waits for internal goroutines to exit.
func (h *Hub) Shutdown() error {
	var err error
	h.closeOnce.Do(func() {
		// Stop the broadcast pool first: after bcastClosed is set no new
		// job can be enqueued, and closing the queue lets each worker drain
		// what was enqueued before exiting, so no BroadcastTo caller is left
		// waiting on a stranded job.
		h.bcastMu.Lock()
		h.bcastClosed = true
		close(h.bcast)
		h.bcastMu.Unlock()
		// Snapshot every live connection — including ones stalled before
		// or mid-registration — so closing them unblocks every reader
		// goroutine; otherwise readerWG.Wait below could hang forever on a
		// peer that connected but never completed its register frame. The
		// shutdown flag stops handleConn from tracking (and blocking on)
		// conns accepted after this snapshot.
		h.mu.Lock()
		h.shutdown = true
		states := make([]*connState, 0, len(h.live))
		for _, st := range h.live {
			states = append(states, st)
		}
		h.conns = make(map[int]*connState)
		h.mu.Unlock()
		// Notify outside the locks with a write deadline: a stalled agent
		// must not be able to wedge shutdown.
		for _, st := range states {
			_ = st.send(Envelope{Type: MsgShutdown}, h.writeTimeout)
			_ = st.conn.Close()
		}
		close(h.closed)
		err = h.ln.Close()
		h.acceptWG.Wait()
		h.readerWG.Wait()
		h.reaperWG.Wait()
		h.poolWG.Wait()
	})
	return err
}

// putReport recycles a buffer nobody references, unless it is outsized.
func (h *Hub) putReport(b *reportBuf) {
	if b.frameLen > maxRecycledFrame {
		return
	}
	select {
	case h.free <- b:
	default:
	}
}

// broadcastWorker drains the broadcast queue until Shutdown closes it;
// range yields every job enqueued before the close, so no caller is left
// waiting on an abandoned slot. The worker owns its column buffers.
func (h *Hub) broadcastWorker() {
	defer h.poolWG.Done()
	zCol, yCol := make([]float64, h.numSlices), make([]float64, h.numSlices)
	for job := range h.bcast {
		h.runBroadcast(job, zCol, yCol)
	}
}

// runBroadcast sends one RA its coordination column. A failed or timed-out
// write drops the connection so the next round fails fast instead of
// stalling again.
//
//edgeslice:noalloc
func (h *Hub) runBroadcast(job bcastJob, zCol, yCol []float64) {
	defer job.wg.Done()
	for i := range zCol {
		zCol[i] = job.z[i][job.ra]
		yCol[i] = job.y[i][job.ra]
	}
	e := Envelope{Type: MsgCoordination, Period: job.period, Z: zCol, Y: yCol}
	if err := job.st.send(e, h.writeTimeout); err != nil {
		h.dropConn(job.ra, job.st)
		//edgeslice:allocok cold error path
		*job.err = fmt.Errorf("rcnet: broadcast to RA %d: %w", job.ra, err)
	}
}

// recordCoordination remembers the period's (Z, Y) grids for later resume
// frames. Retried broadcasts of an already-recorded period are no-ops; a
// period's grids never change between attempts.
func (h *Hub) recordCoordination(period int, z, y [][]float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if period != h.logged() {
		return // retry of a recorded period, or a caller reusing period numbers
	}
	h.zLog, h.yLog = h.appendGrid(h.zLog, z), h.appendGrid(h.yLog, y)
}

// logged is the number of periods in the coordination log.
func (h *Hub) logged() int { return len(h.zLog) / (h.numSlices * h.numRAs) }

// appendGrid appends a [slice][ra] grid to a flat coordination log,
// doubling its capacity in whole periods so n logged periods cost
// O(log n) allocations, at the same periods for any RA count.
//
//edgeslice:noalloc
func (h *Hub) appendGrid(log []float64, g [][]float64) []float64 {
	if n := len(g) * h.numRAs; len(log)+n > cap(log) {
		//edgeslice:allocok the doubling step, once per doubling of the log
		log = append(make([]float64, 0, 2*cap(log)+n), log...)
	}
	for _, row := range g {
		//edgeslice:allocok the capacity check above leaves room for the period
		log = append(log, row[:h.numRAs]...)
	}
	return log
}

// resumePeriodLocked is the first period RA ra must execute live when it
// registers now. A re-registering RA whose report for the in-flight period
// was already collected must replay through that period too (the executor
// will not re-broadcast it), hence the lastReported term.
func (h *Hub) resumePeriodLocked(ra int) int {
	catchUp := h.completed
	if last, ok := h.lastReported[ra]; ok && last+1 > catchUp {
		catchUp = last + 1
	}
	return min(catchUp, h.logged()) // defensive: never promise columns we don't hold
}

// resumeFrameLocked builds RA ra's catch-up frame from the coordination
// log: the first period it must execute live and its coordination columns
// for every earlier period.
func (h *Hub) resumeFrameLocked(ra int) Envelope {
	catchUp := h.resumePeriodLocked(ra)
	e := Envelope{Type: MsgResume, RA: ra, Period: catchUp}
	if catchUp > 0 {
		I, J := h.numSlices, h.numRAs
		e.ZHist, e.YHist = make([][]float64, catchUp), make([][]float64, catchUp)
		for p := range catchUp {
			e.ZHist[p], e.YHist[p] = make([]float64, I), make([]float64, I)
			for i := range I {
				e.ZHist[p][i] = h.zLog[(p*I+i)*J+ra]
				e.YHist[p][i] = h.yLog[(p*I+i)*J+ra]
			}
		}
	}
	return e
}

// collectInto drains the report channel into the collect buffers until
// every RA has reported, the timeout passes, or the hub closes. Each
// accepted report is copied into out[ra], reusing its slices, before its
// buffer goes back to the free list, so a later duplicate decoded into that
// buffer can never reach out.
//
//edgeslice:noalloc
func (h *Hub) collectInto(period int, timeout time.Duration, out []Envelope, got []bool) (int, error) {
	n := 0
	for _, g := range got {
		if g {
			n++
		}
	}
	h.timer.Reset(timeout)
	defer h.timer.Stop()
	for n < h.numRAs {
		select {
		case b := <-h.reports:
			m := &b.env
			switch {
			case m.Period != period || got[m.RA]:
				h.stats.reportsDropped.Add(1)
			case len(m.Perf) != h.numSlices:
				h.putReport(b)
				//edgeslice:allocok cold error path
				return n, fmt.Errorf("rcnet: RA %d reported %d slices, want %d", m.RA, len(m.Perf), h.numSlices)
			default:
				copyEnvelope(&out[m.RA], m)
				got[m.RA] = true
				n++
			}
			h.putReport(b)
		case <-h.timer.C:
			return n, errCollectTimeout
		case <-h.closed:
			return n, errHubClosed
		}
	}
	return n, nil
}

// copyEnvelope deep-copies src into dst, reusing dst's slices and rows.
//
//edgeslice:noalloc
func copyEnvelope(dst, src *Envelope) {
	dst.Type, dst.RA, dst.Period = src.Type, src.RA, src.Period
	dst.Z, dst.Y = copyInto(dst.Z, src.Z), copyInto(dst.Y, src.Y)
	dst.Perf, dst.Queues = copyInto(dst.Perf, src.Perf), copyInto(dst.Queues, src.Queues)
	dst.Intervals = resize(dst.Intervals, len(src.Intervals))
	for t := range dst.Intervals {
		d, s := &dst.Intervals[t], &src.Intervals[t]
		d.Perf, d.Queues = copyInto(d.Perf, s.Perf), copyInto(d.Queues, s.Queues)
		d.Effective, d.Violation = copyRows(d.Effective, s.Effective), s.Violation
	}
	dst.ZHist, dst.YHist = copyRows(dst.ZHist, src.ZHist), copyRows(dst.YHist, src.YHist)
}

func copyInto[E any](dst, src []E) []E {
	dst = resize(dst, len(src))
	copy(dst, src)
	return dst
}

func copyRows(dst, src [][]float64) [][]float64 {
	dst = resize(dst, len(src))
	for i := range dst {
		dst[i] = copyInto(dst[i], src[i])
	}
	return dst
}

// dropConn removes st from the conn table if it is still the RA's current
// connection, then closes it.
func (h *Hub) dropConn(ra int, st *connState) {
	h.mu.Lock()
	dropped := h.conns[ra] == st
	if dropped {
		delete(h.conns, ra)
	}
	h.mu.Unlock()
	if dropped {
		h.stats.connsDropped.Add(1)
	}
	_ = st.conn.Close()
}
