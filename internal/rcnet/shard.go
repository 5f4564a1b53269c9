package rcnet

import (
	"fmt"
	"sync"
	"time"
)

// hubShard owns a fixed contiguous RA range [lo, hi) of the hub: its own
// mutex, connection table, coordination-column log, liveness reaper, and a
// pool of broadcast-writer goroutines. Period broadcast and report
// collection proceed in parallel across shards — each shard touches only
// its own lock and its own slice of the shared collect buffers — while the
// root Hub merges results in fixed RA order, so the merged run is
// bit-identical for any shard count.
type hubShard struct {
	h      *Hub
	index  int
	lo, hi int // owned RA range [lo, hi)

	mu           sync.Mutex
	conns        map[int]*connState // registered RA (global id) -> conn
	seenRAs      map[int]bool       // RAs that registered at least once
	lastReported map[int]int        // last period each RA reported
	zLog, yLog   [][][]float64      // [period][slice][ra-lo]: own columns only
	completed    int

	reports chan Envelope // perf reports from this shard's readers
	bcast   chan bcastJob // broadcast work for this shard's writer pool
}

// bcastJob is one RA's coordination send, executed by a shard writer. The
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

// broadcastWriters is the size of each shard's broadcast-writer pool,
// capped by the shard's RA count.
const broadcastWriters = 4

func newShard(h *Hub, index, lo, hi int) *hubShard {
	size := hi - lo
	sh := &hubShard{
		h: h, index: index, lo: lo, hi: hi,
		conns:        make(map[int]*connState, size),
		seenRAs:      make(map[int]bool, size),
		lastReported: make(map[int]int, size),
		// Capacity covers the worst case — one in-flight frame per owned RA —
		// so shard readers never block a collect and enqueues never block a
		// broadcast.
		reports: make(chan Envelope, size),
		bcast:   make(chan bcastJob, size),
	}
	writers := broadcastWriters
	if writers > size {
		writers = size
	}
	for w := 0; w < writers; w++ {
		h.poolWG.Add(1)
		go sh.broadcastWorker()
	}
	return sh
}

// broadcastWorker drains the shard's broadcast queue until Shutdown closes
// it; range yields every job enqueued before the close, so no caller is
// left waiting on an abandoned slot.
func (sh *hubShard) broadcastWorker() {
	defer sh.h.poolWG.Done()
	for job := range sh.bcast {
		sh.runBroadcast(job)
	}
}

// runBroadcast sends one RA its coordination column. A failed or timed-out
// write drops the connection so the next round fails fast instead of
// stalling again.
func (sh *hubShard) runBroadcast(job bcastJob) {
	defer job.wg.Done()
	n := len(job.z)
	zCol := make([]float64, n)
	yCol := make([]float64, n)
	for i := 0; i < n; i++ {
		zCol[i] = job.z[i][job.ra]
		yCol[i] = job.y[i][job.ra]
	}
	e := Envelope{Type: MsgCoordination, Period: job.period, Z: zCol, Y: yCol}
	if err := job.st.send(e, sh.h.writeTimeout); err != nil {
		sh.dropConn(job.ra, job.st)
		*job.err = fmt.Errorf("rcnet: broadcast to RA %d: %w", job.ra, err)
	}
}

// recordCoordination remembers the shard's columns of the period's (Z, Y)
// grids for later resume frames. Retried broadcasts of an already-recorded
// period are no-ops; a period's grids never change between attempts.
func (sh *hubShard) recordCoordination(period int, z, y [][]float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if period != len(sh.zLog) {
		return // retry of a recorded period, or a caller reusing period numbers
	}
	sh.zLog = append(sh.zLog, copyCols(z, sh.lo, sh.hi))
	sh.yLog = append(sh.yLog, copyCols(y, sh.lo, sh.hi))
}

// copyCols snapshots columns [lo, hi) of a [slice][ra] grid.
func copyCols(g [][]float64, lo, hi int) [][]float64 {
	out := make([][]float64, len(g))
	for i, row := range g {
		out[i] = append([]float64(nil), row[lo:hi]...)
	}
	return out
}

// resumeFrameLocked builds RA ra's catch-up frame from the shard's column
// log: the first period it must execute live and its coordination columns
// for every earlier period. A re-registering RA whose report for the
// in-flight period was already collected must replay through that period
// too (the executor will not re-broadcast it), hence the lastReported term.
func (sh *hubShard) resumeFrameLocked(ra int) Envelope {
	catchUp := sh.completed
	if last, ok := sh.lastReported[ra]; ok && last+1 > catchUp {
		catchUp = last + 1
	}
	if catchUp > len(sh.zLog) {
		catchUp = len(sh.zLog) // defensive: never promise columns we don't hold
	}
	e := Envelope{Type: MsgResume, RA: ra, Period: catchUp}
	if catchUp > 0 {
		numSlices := sh.h.numSlices
		col := ra - sh.lo
		e.ZHist = make([][]float64, catchUp)
		e.YHist = make([][]float64, catchUp)
		for p := 0; p < catchUp; p++ {
			zCol := make([]float64, numSlices)
			yCol := make([]float64, numSlices)
			for i := 0; i < numSlices; i++ {
				zCol[i] = sh.zLog[p][i][col]
				yCol[i] = sh.yLog[p][i][col]
			}
			e.ZHist[p] = zCol
			e.YHist[p] = yCol
		}
	}
	return e
}

// collectInto drains the shard's report channel into the shard's slice of
// the shared collect buffers until every owned RA has reported, the shared
// timeout fires, or the hub closes. Shard readers only forward reports for
// RAs the shard owns, so out/got writes from concurrent shard collectors
// never overlap.
func (sh *hubShard) collectInto(period int, timeoutC <-chan struct{}, out []Envelope, got []bool) (int, error) {
	n := 0
	for ra := sh.lo; ra < sh.hi; ra++ {
		if got[ra] {
			n++
		}
	}
	want := sh.hi - sh.lo
	for n < want {
		select {
		case m := <-sh.reports:
			if m.Period != period || got[m.RA] {
				sh.h.stats.reportsDropped.Add(1)
				continue
			}
			if len(m.Perf) != sh.h.numSlices {
				return n, fmt.Errorf("rcnet: RA %d reported %d slices, want %d", m.RA, len(m.Perf), sh.h.numSlices)
			}
			out[m.RA] = m
			got[m.RA] = true
			n++
		case <-timeoutC:
			return n, errCollectTimeout
		case <-sh.h.closed:
			return n, errHubClosed
		}
	}
	return n, nil
}

// dropConn removes st from the shard's table if it is still the RA's
// current connection, then closes it.
func (sh *hubShard) dropConn(ra int, st *connState) {
	sh.mu.Lock()
	dropped := sh.conns[ra] == st
	if dropped {
		delete(sh.conns, ra)
	}
	sh.mu.Unlock()
	if dropped {
		sh.h.stats.connsDropped.Add(1)
	}
	_ = st.conn.Close()
}

// reapLoop periodically closes the shard's registered connections whose
// peers went silent. The scan interval divides the liveness timeout so a
// dead conn is reaped at most ~1.25 timeouts after its last frame.
func (sh *hubShard) reapLoop(timeout time.Duration) {
	defer sh.h.reaperWG.Done()
	interval := timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-sh.h.closed:
			return
		case <-ticker.C:
			sh.reapOnce(time.Now().UnixNano(), timeout)
		}
	}
}

// reapOnce collects the shard's silent connections under its lock and
// closes them outside it; closing unblocks each conn's reader goroutine,
// which runs the usual dropConn path.
func (sh *hubShard) reapOnce(now int64, timeout time.Duration) {
	sh.mu.Lock()
	var victims []*connState
	for _, st := range sh.conns {
		if now-st.lastSeen.Load() > int64(timeout) {
			victims = append(victims, st)
		}
	}
	sh.mu.Unlock()
	for _, st := range victims {
		sh.h.stats.reaped.Add(1)
		_ = st.conn.Close()
	}
}
