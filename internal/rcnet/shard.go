package rcnet

import (
	"fmt"
	"sync"
	"time"
)

// hubShard owns a fixed contiguous RA range [lo, hi) of the hub: its own
// mutex, connection table, coordination-column log, and a pool of
// broadcast-writer goroutines. Period broadcast and report decoding
// proceed in parallel across shards — each shard touches only its own lock
// and its own slice of the shared collect buffers — while the root Hub
// merges results in fixed RA order, so the merged run is bit-identical for
// any shard count.
type hubShard struct {
	h      *Hub
	index  int
	lo, hi int // owned RA range [lo, hi)

	mu           sync.Mutex
	conns        map[int]*connState // registered RA (global id) -> conn
	seenRAs      map[int]bool       // RAs that registered at least once
	lastReported map[int]int        // last period each RA reported
	zLog, yLog   []float64          // flat [period][slice][ra-lo]: own columns only
	completed    int

	reports chan *reportBuf // perf reports from this shard's readers
	free    chan *reportBuf // decode buffers no reader or collector holds
	bcast   chan bcastJob   // broadcast work for this shard's writer pool
	timer   *time.Timer     // the collect deadline, reused every period
}

// reportBuf is a decode target a shard reader fills and the collector
// copies out of before handing it back to the free list.
type reportBuf struct {
	env      Envelope
	frameLen int // the largest frame it ever held
}

// maxRecycledFrame keeps the buffer of a hostile near-maxLineBytes frame off
// the free list, so it cannot pin megabytes per RA.
const maxRecycledFrame = maxLineBytes / 4

// putReport recycles a buffer nobody references, unless it is outsized.
func (sh *hubShard) putReport(b *reportBuf) {
	if b.frameLen > maxRecycledFrame {
		return
	}
	select {
	case sh.free <- b:
	default:
	}
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
		reports: make(chan *reportBuf, size),
		// One buffer per reader, per queued report and for the collector: a
		// healthy shard never allocates one once its first frames sized them.
		free:  make(chan *reportBuf, 2*size+1),
		bcast: make(chan bcastJob, size),
		timer: time.NewTimer(time.Hour),
	}
	sh.timer.Stop()
	for range cap(sh.free) {
		sh.free <- new(reportBuf)
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
// left waiting on an abandoned slot. The worker owns its column buffers.
func (sh *hubShard) broadcastWorker() {
	defer sh.h.poolWG.Done()
	zCol, yCol := make([]float64, sh.h.numSlices), make([]float64, sh.h.numSlices)
	for job := range sh.bcast {
		sh.runBroadcast(job, zCol, yCol)
	}
}

// runBroadcast sends one RA its coordination column. A failed or timed-out
// write drops the connection so the next round fails fast instead of
// stalling again.
//
//edgeslice:noalloc
func (sh *hubShard) runBroadcast(job bcastJob, zCol, yCol []float64) {
	defer job.wg.Done()
	for i := range zCol {
		zCol[i] = job.z[i][job.ra]
		yCol[i] = job.y[i][job.ra]
	}
	e := Envelope{Type: MsgCoordination, Period: job.period, Z: zCol, Y: yCol}
	if err := job.st.send(e, sh.h.writeTimeout); err != nil {
		sh.dropConn(job.ra, job.st)
		//edgeslice:allocok cold error path
		*job.err = fmt.Errorf("rcnet: broadcast to RA %d: %w", job.ra, err)
	}
}

// recordCoordination remembers the shard's columns of the period's (Z, Y)
// grids for later resume frames. Retried broadcasts of an already-recorded
// period are no-ops; a period's grids never change between attempts.
func (sh *hubShard) recordCoordination(period int, z, y [][]float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if period != sh.logged() {
		return // retry of a recorded period, or a caller reusing period numbers
	}
	sh.zLog, sh.yLog = appendCols(sh.zLog, z, sh.lo, sh.hi), appendCols(sh.yLog, y, sh.lo, sh.hi)
}

// logged is the number of periods in the shard's coordination log.
func (sh *hubShard) logged() int { return len(sh.zLog) / (sh.h.numSlices * (sh.hi - sh.lo)) }

// appendCols appends columns [lo, hi) of a [slice][ra] grid to a flat
// coordination log, doubling its capacity in whole periods so n logged
// periods cost O(log n) allocations, at the same periods for any RA count.
//
//edgeslice:noalloc
func appendCols(log []float64, g [][]float64, lo, hi int) []float64 {
	if n := len(g) * (hi - lo); len(log)+n > cap(log) {
		//edgeslice:allocok the doubling step, once per doubling of the log
		log = append(make([]float64, 0, 2*cap(log)+n), log...)
	}
	for _, row := range g {
		//edgeslice:allocok the capacity check above leaves room for the period
		log = append(log, row[lo:hi]...)
	}
	return log
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
	if catchUp > sh.logged() {
		catchUp = sh.logged() // defensive: never promise columns we don't hold
	}
	e := Envelope{Type: MsgResume, RA: ra, Period: catchUp}
	if catchUp > 0 {
		I, width, col := sh.h.numSlices, sh.hi-sh.lo, ra-sh.lo
		e.ZHist, e.YHist = make([][]float64, catchUp), make([][]float64, catchUp)
		for p := range catchUp {
			e.ZHist[p], e.YHist[p] = make([]float64, I), make([]float64, I)
			for i := range I {
				e.ZHist[p][i] = sh.zLog[(p*I+i)*width+col]
				e.YHist[p][i] = sh.yLog[(p*I+i)*width+col]
			}
		}
	}
	return e
}

// collectInto drains the shard's report channel into the shard's slice of
// the shared collect buffers until every owned RA has reported, the timeout
// passes, or the hub closes. Each accepted report is copied into out[ra],
// reusing its slices, before its buffer goes back to the free list, so a
// later duplicate decoded into that buffer can never reach out.
//
//edgeslice:noalloc
func (sh *hubShard) collectInto(period int, timeout time.Duration, out []Envelope, got []bool) (int, error) {
	n := 0
	for ra := sh.lo; ra < sh.hi; ra++ {
		if got[ra] {
			n++
		}
	}
	sh.timer.Reset(timeout)
	defer sh.timer.Stop()
	for want := sh.hi - sh.lo; n < want; {
		select {
		case b := <-sh.reports:
			m := &b.env
			switch {
			case m.Period != period || got[m.RA]:
				sh.h.stats.reportsDropped.Add(1)
			case len(m.Perf) != sh.h.numSlices:
				sh.putReport(b)
				//edgeslice:allocok cold error path
				return n, fmt.Errorf("rcnet: RA %d reported %d slices, want %d", m.RA, len(m.Perf), sh.h.numSlices)
			default:
				copyEnvelope(&out[m.RA], m)
				got[m.RA] = true
				n++
			}
			sh.putReport(b)
		case <-sh.timer.C:
			return n, errCollectTimeout
		case <-sh.h.closed:
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
