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
// reports.
//
// Internally the hub is sharded (NewShardedHub): each shard owns a fixed
// contiguous RA range with its own mutex, connection table, coordination
// log, and broadcast-writer pool, so period broadcast and report decoding
// run in parallel across shards. The root hub owns the listener and the
// liveness reaper, demultiplexes registrations to shards, and merges
// per-shard results in fixed RA order — History and residuals are
// bit-identical for any shard count. NewHub builds the single-shard hub.
//
// Writes to agents are bounded: Broadcast and Shutdown apply a write
// deadline (SetWriteTimeout, default 5s) and never hold a hub or shard
// lock across a network write, so one stalled agent cannot head-of-line
// block the round for healthy RAs or deadlock dropConn/Shutdown. A
// connection that misses its write deadline is dropped; the agent must
// re-register.
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

	shards []*hubShard

	// mu guards the pre-registration state: every accepted conn (so
	// Shutdown can close peers stalled mid-register), the shutdown flag, and
	// the liveness timeout. Registered-RA state lives in the shards, each
	// under its own lock. Lock order is always mu before a shard's mu.
	mu          sync.Mutex
	live        map[net.Conn]*connState
	shutdown    bool
	liveTimeout time.Duration // 0: liveness reaping disabled

	// bcastMu serializes broadcast enqueues against Shutdown closing the
	// shard writer pools: producers hold it shared while enqueueing,
	// Shutdown holds it exclusively while closing the queues, so a job is
	// either fully enqueued before the close (and drained by the pool) or
	// rejected with errHubClosed — never stranded.
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

// NewHub listens on addr (e.g. "127.0.0.1:0") for numRAs agents managing
// numSlices slices each, with a single shard — the compatibility shape.
func NewHub(addr string, numSlices, numRAs int) (*Hub, error) {
	return NewShardedHub(addr, numSlices, numRAs, 1)
}

// NewShardedHub listens on addr for numRAs agents managing numSlices
// slices each, splitting the RA space across shards contiguous ranges
// (sizes differing by at most one). Shard counts above numRAs are clamped;
// any shard count produces bit-identical runs.
func NewShardedHub(addr string, numSlices, numRAs, shards int) (*Hub, error) {
	if numSlices <= 0 || numRAs <= 0 {
		return nil, fmt.Errorf("rcnet: invalid hub dims slices=%d ras=%d", numSlices, numRAs)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("rcnet: invalid shard count %d", shards)
	}
	if shards > numRAs {
		shards = numRAs
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
		registered:   make(chan int, numRAs),
		closed:       make(chan struct{}),
	}
	h.shards = make([]*hubShard, shards)
	for s := 0; s < shards; s++ {
		h.shards[s] = newShard(h, s, h.shardLo(s), h.shardLo(s+1))
	}
	h.acceptWG.Add(1)
	go h.acceptLoop()
	return h, nil
}

// defaultWriteTimeout bounds how long a Broadcast or Shutdown write may
// block on one agent's connection before the hub drops it.
const defaultWriteTimeout = 5 * time.Second

// Collection sentinels, turned into caller-facing errors by the root hub
// after all shard collectors return.
var (
	errCollectTimeout = errors.New("rcnet: collect timeout")
	errHubClosed      = errors.New("rcnet: hub closed")
)

// shardLo returns the first RA of shard s: the leading numRAs%shards
// shards get one extra RA, keeping ranges contiguous and balanced.
func (h *Hub) shardLo(s int) int {
	n, k := h.numRAs, len(h.shards)
	base, rem := n/k, n%k
	if s <= rem {
		return s * (base + 1)
	}
	return rem*(base+1) + (s-rem)*base
}

// shardFor returns the shard owning RA ra.
func (h *Hub) shardFor(ra int) *hubShard {
	n, k := h.numRAs, len(h.shards)
	base, rem := n/k, n%k
	if ra < rem*(base+1) {
		return h.shards[ra/(base+1)]
	}
	return h.shards[rem+(ra-rem*(base+1))/base]
}

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
	liveTimeout := h.liveTimeout
	h.mu.Unlock()
	for _, sh := range h.shards {
		sh.mu.Lock()
		registeredRAs += len(sh.conns)
		if liveTimeout > 0 {
			for _, st := range sh.conns {
				if now-st.lastSeen.Load() <= int64(liveTimeout) {
					liveRAs++
				}
			}
		}
		sh.mu.Unlock()
	}
	if liveTimeout <= 0 {
		liveRAs = registeredRAs
	}
	return liveRAs, registeredRAs, h.numRAs
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
// register frame and routing the conn to the shard owning its RA — then
// pumps reports into the shard's collect channel.
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
	sh := h.shardFor(msg.RA)

	// Registration is a two-step handshake so the resume frame is on the
	// wire before the conn becomes broadcastable: (1) snapshot the catch-up
	// state, (2) write the resume frame outside the lock, (3) re-take the
	// lock, verify the snapshot is still current, and install the conn. If
	// a period completed between (1) and (3) the snapshot is stale — the
	// conn is closed and the agent redials into a clean handshake. Without
	// the ordering, the executor could broadcast the in-flight period to
	// the new conn before its resume frame, and the agent would step it
	// against an un-replayed environment.
	sh.mu.Lock()
	resume := sh.resumeFrameLocked(msg.RA)
	sh.mu.Unlock()
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
	sh.mu.Lock()
	if again := sh.resumeFrameLocked(msg.RA); again.Period != resume.Period {
		sh.mu.Unlock()
		h.mu.Unlock()
		_ = conn.Close() // raced with a period completing; agent must redial
		return
	}
	// Re-registration supersedes: the stale conn (a half-dead socket the
	// hub has not noticed yet) is replaced immediately instead of locking
	// the returning agent out until the next broadcast write timeout.
	old := sh.conns[msg.RA]
	sh.conns[msg.RA] = st
	reconnect := sh.seenRAs[msg.RA]
	sh.seenRAs[msg.RA] = true
	sh.mu.Unlock()
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
	// shard tables itself — so on a full channel the oldest entry is
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
	var buf *reportBuf // from the shard's free list; a report hands it to the collector
	for {
		if buf == nil {
			select {
			case buf = <-sh.free:
			default:
				buf = new(reportBuf) // only while more frames are in flight than the list was filled for
			}
		}
		err := mr.readInto(&buf.env)
		buf.frameLen = max(buf.frameLen, mr.frameLen)
		if err != nil {
			sh.dropConn(msg.RA, st)
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
			// frame. WrongShard counts the subset outside this shard.
			if m.RA != msg.RA {
				if m.RA < sh.lo || m.RA >= sh.hi {
					h.stats.wrongShard.Add(1)
				}
				h.stats.reportsDropped.Add(1)
				continue
			}
			sh.mu.Lock()
			if last, ok := sh.lastReported[m.RA]; !ok || m.Period > last {
				sh.lastReported[m.RA] = m.Period
			}
			sh.mu.Unlock()
			select {
			case sh.reports <- buf:
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
// timeout expires. The shard registration tables are the ground truth; the
// channel (plus a coarse ticker, in case a wakeup was dropped) only paces
// the recounts.
func (h *Hub) WaitRegistered(timeout time.Duration) error {
	count := func() int {
		n := 0
		for _, sh := range h.shards {
			sh.mu.Lock()
			n += len(sh.conns)
			sh.mu.Unlock()
		}
		return n
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
	for _, sh := range h.shards {
		sh.mu.Lock()
		if p+1 > sh.completed {
			sh.completed = p + 1
		}
		sh.mu.Unlock()
	}
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
	for _, sh := range h.shards {
		sh.mu.Lock()
		if len(sh.seenRAs) > 0 {
			sh.mu.Unlock()
			return errors.New("rcnet: prime resume after an agent registered; prime immediately after NewHub")
		}
		if sh.completed != 0 || len(sh.zLog) != 0 {
			sh.mu.Unlock()
			return errors.New("rcnet: hub already holds coordination history")
		}
		sh.completed = periods
		for p := 0; p < periods; p++ {
			sh.zLog, sh.yLog = appendCols(sh.zLog, zs[p], sh.lo, sh.hi), appendCols(sh.yLog, ys[p], sh.lo, sh.hi)
		}
		sh.mu.Unlock()
	}
	return nil
}

// Broadcast sends each RA its coordination column for the period. z and y
// are [slice][ra] grids.
//
// Connections are snapshotted under their shard's lock and written by the
// shard writer pools outside it with a write deadline, so a stalled agent
// delays the round by at most the write timeout, never blocks healthy
// RAs' writes, and never wedges callers that need a hub lock (dropConn,
// Shutdown). A connection that fails or times out is dropped and reported;
// the remaining RAs still receive their coordination. Broadcast is
// intended to be called from a single coordinator loop, not concurrently.
func (h *Hub) Broadcast(period int, z, y [][]float64) error {
	// Fail fast before writing anything when an RA is missing: a caller of
	// the full-round broadcast treats a partial round as fatal, and healthy
	// agents must not receive a round the caller will abandon.
	for _, sh := range h.shards {
		sh.mu.Lock()
		for ra := sh.lo; ra < sh.hi; ra++ {
			if _, ok := sh.conns[ra]; !ok {
				sh.mu.Unlock()
				return fmt.Errorf("rcnet: RA %d not connected", ra)
			}
		}
		sh.mu.Unlock()
	}
	ras := make([]int, h.numRAs)
	for ra := range ras {
		ras[ra] = ra
	}
	return h.BroadcastTo(period, z, y, ras)
}

// BroadcastTo sends the period's coordination columns to a subset of RAs —
// the retry path re-broadcasts an in-flight period only to the RAs whose
// reports are still missing, so agents that already stepped it are never
// asked to step it twice. The sends are fanned out to the shard writer
// pools and run in parallel across shards. An RA that is not currently
// registered, or whose write fails, contributes to the returned error
// (first in ras order, for determinism); the others still receive their
// columns.
func (h *Hub) BroadcastTo(period int, z, y [][]float64, ras []int) error {
	if len(z) != h.numSlices || len(y) != h.numSlices {
		return fmt.Errorf("rcnet: coordination grids have %d/%d slices, want %d", len(z), len(y), h.numSlices)
	}
	for _, ra := range ras {
		if ra < 0 || ra >= h.numRAs {
			return fmt.Errorf("rcnet: broadcast to invalid RA %d", ra)
		}
	}
	for _, sh := range h.shards {
		sh.recordCoordination(period, z, y)
	}
	h.bcastErrs = resize(h.bcastErrs, len(ras))
	errs, wg := h.bcastErrs, &h.bcastWG
	clear(errs)
	h.bcastMu.RLock()
	for k, ra := range ras {
		sh := h.shardFor(ra)
		sh.mu.Lock()
		st, ok := sh.conns[ra]
		sh.mu.Unlock()
		switch {
		case !ok:
			errs[k] = fmt.Errorf("rcnet: RA %d not connected", ra)
		case h.bcastClosed:
			errs[k] = errHubClosed
		default:
			wg.Add(1)
			//edgeslice:lockio the send cannot block: each shard's queue has capacity for one job per owned RA and a broadcast enqueues at most one job per RA, while bcastMu (held shared) pins the queue open
			sh.bcast <- bcastJob{st: st, ra: ra, period: period, z: z, y: y, err: &errs[k], wg: wg}
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
// once: shards are drained in order on that goroutine against one
// deadline, each with its own reused timer, while their readers decode.
func (h *Hub) CollectReportsInto(period int, timeout time.Duration, out []Envelope, got []bool) (int, error) {
	if len(out) != h.numRAs || len(got) != h.numRAs {
		return 0, fmt.Errorf("rcnet: collect buffers sized %d/%d, want %d", len(out), len(got), h.numRAs)
	}
	deadline := time.Now().Add(timeout)
	n, timedOut := 0, false
	for _, sh := range h.shards {
		c, err := sh.collectInto(period, time.Until(deadline), out, got)
		n += c
		switch {
		case errors.Is(err, errCollectTimeout):
			timedOut = true
		case err != nil:
			return n, err // hub closed, or a malformed report
		}
	}
	if timedOut {
		return n, fmt.Errorf("rcnet: %d/%d reports for period %d before timeout", n, h.numRAs, period)
	}
	return n, nil
}

// Shutdown notifies agents, closes all connections and the listener, and
// waits for internal goroutines to exit.
func (h *Hub) Shutdown() error {
	var err error
	h.closeOnce.Do(func() {
		// Stop the broadcast pools first: after bcastClosed is set no new
		// job can be enqueued, and closing the queues lets each worker
		// drain what was enqueued before exiting, so no BroadcastTo caller
		// is left waiting on a stranded job.
		h.bcastMu.Lock()
		h.bcastClosed = true
		for _, sh := range h.shards {
			close(sh.bcast)
		}
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
		h.mu.Unlock()
		for _, sh := range h.shards {
			sh.mu.Lock()
			sh.conns = make(map[int]*connState)
			sh.mu.Unlock()
		}
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
