package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one named set of inputs. All driving is closed loop with one
// driver: period p+1 needs the (Z, Y) that period p's ADMM update produced,
// so the next op is issued only when the previous one has returned.
type workload interface {
	// setup builds the system under test and runs the warm-up ops; its wall
	// time is setup_s, so work moved out of the timed loop shows there.
	setup() error
	// op runs one timed operation and returns how many ops it completed
	// (a sweep completes one op per replica).
	op() (int, error)
	// verify checks the outputs after the timed loop; its time is excluded
	// from every metric.
	verify() error
	// close releases everything setup created; an error or a goroutine
	// left behind fails the run.
	close() error
	// config is the generated input, recorded beside every result.
	config() any
	// shape tells the traced pass what size to replay and probe the layers
	// at for this workload.
	shape() layerShape
}

// layerShape is the part of a workload the traced pass needs.
type layerShape struct {
	local          localConfig // shape of the layer replay, engine comparison and probes
	periodsPerOp   int         // Algorithm-1 periods inside one op
	raPeriodsPerOp int         // RA-periods inside one op (allocs_per_ra_period divides by it)
}

// runOpts is one invocation's settings.
type runOpts struct {
	seed    int64
	seconds float64
	sc      scale
	tmpDir  string // scratch root; every workload makes and removes its own subdirectory
	resDir  string // where trace files go
	// mutateReplay flips one byte of one replayed action. Only the test
	// sets it, to prove the replay admission check can fail.
	mutateReplay bool
}

func newWorkload(name string, o runOpts) (workload, error) {
	switch name {
	case wlLocalInfer:
		return newLocalWorkload("edgeslice", o.seed, o.sc), nil
	case wlLocalStep:
		return newLocalWorkload("taro", o.seed, o.sc), nil
	case wlRemote:
		return newRemoteWorkload(o.seed, o.sc, o.tmpDir), nil
	case wlTrain:
		return newTrainWorkload(o.seed, o.sc), nil
	case wlSweep:
		return newSweepWorkload(o.seed, o.sc, o.tmpDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// A run sets up at least minSetupReps times, and keeps going (up to
// maxSetupReps) until set-ups have taken setupBudget in total: setup_s is the
// median, and a set-up of a few milliseconds needs many repeats before its
// median is steady. The last set-up is the one the timed loop uses.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = time.Second
)

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Config    any               `json:"config"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Gates     []string          `json:"gates"`
	WallS     float64           `json:"measured_wall_s"`
	Metrics   map[string]sample `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// fail marks the whole run failed: every attempted op (at least one) counts
// as failed, so failed_share reads 1 and the command exits non-zero.
func (r *result) fail(err error) *result {
	r.Error, r.Correct = err.Error(), false
	r.Attempted = max(r.Attempted, 1)
	r.Failed = r.Attempted
	return r
}

// opLoop is the timed part of a run, shared by the untraced run and the
// traced pass's own copy of it.
type opLoop struct {
	opMS     []float64 // per-op wall time, one entry per op() call (a sweep's wall ÷ its replicas)
	opN      []int     // ops completed by each op() call
	ops      int
	failed   int
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	heapPeak uint64 // max HeapInuse at op boundaries; sampled only when sampleHeap
	err      error
}

func runOps(w workload, seconds float64, sampleHeap bool) opLoop {
	var l opLoop
	l.opMS = make([]float64, 0, 1<<16) // sized up front: the loop's own bookkeeping must not show in allocs_per_op
	l.opN = make([]int, 0, 1<<16)
	var m0, m1, mh runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	lastHeap := start
	for len(l.opMS) == 0 || time.Now().Before(deadline) {
		t := time.Now()
		n, err := w.op()
		d := time.Since(t)
		l.ops += n
		if err != nil {
			l.failed += n
			l.err = err
			break
		}
		l.opMS = append(l.opMS, float64(d.Nanoseconds())/1e6/float64(n))
		l.opN = append(l.opN, n)
		// ReadMemStats stops the world, so the traced loop samples the heap
		// at most every 50 ms instead of after every sub-millisecond op.
		if sampleHeap && time.Since(lastHeap) > 50*time.Millisecond {
			runtime.ReadMemStats(&mh)
			if mh.HeapInuse > l.heapPeak {
				l.heapPeak = mh.HeapInuse
			}
			lastHeap = time.Now()
		}
	}
	l.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	l.mallocs = m1.Mallocs - m0.Mallocs
	l.bytes = m1.TotalAlloc - m0.TotalAlloc
	return l
}

// throughputChunks is how many equal-count stretches of the run ops_per_s
// is the median over: a stall of the shared host (another tenant, a long
// GC) lands in one or two stretches and leaves the median alone, where it
// would drag a whole-run average.
const throughputChunks = 10

// opsPerSecond is the median, over up to throughputChunks consecutive
// equal-count stretches of the timed loop, of ops completed ÷ time taken.
func (l *opLoop) opsPerSecond() float64 {
	chunks := min(throughputChunks, len(l.opMS))
	rates := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(l.opMS)/chunks, (c+1)*len(l.opMS)/chunks
		var ops int
		var ms float64
		for i := lo; i < hi; i++ {
			ops += l.opN[i]
			ms += l.opMS[i] * float64(l.opN[i])
		}
		rates = append(rates, float64(ops)/(ms/1e3))
	}
	return median(rates)
}

// setUp sets the workload up repeatedly, closing all but the last, and
// returns the last with every set-up's time in seconds.
func setUp(name string, o runOpts) (workload, []float64, error) {
	var w workload
	var times []float64
	var total time.Duration
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && total < setupBudget); rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, fmt.Errorf("close after set-up %d: %w", rep, err)
			}
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(name, o); err != nil {
			return nil, nil, err
		}
		if err := w.setup(); err != nil {
			_ = w.close() // the set-up error is the one to report
			return nil, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return w, times, nil
}

// waitGoroutines reports how many goroutines above base are still running
// after giving exiting ones a moment to finish.
func waitGoroutines(base int) int {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base {
			return 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// finish verifies and tears down; any failure fails the whole run.
func finish(w workload, r *result, loopErr error, baseGoroutines int) {
	err := loopErr
	if err == nil {
		if err = w.verify(); err == nil {
			r.Gates = append(r.Gates, "verify:"+r.Workload)
		}
	}
	if cerr := w.close(); cerr != nil && err == nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err == nil {
		if n := waitGoroutines(baseGoroutines); n > 0 {
			err = fmt.Errorf("teardown: %d goroutine(s) leaked", n)
		} else {
			r.Gates = append(r.Gates, "teardown:"+r.Workload)
		}
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.Correct = r.Failed == 0
}

// runUntraced measures the end-to-end metrics of one workload with tracing
// off.
func runUntraced(name string, o runOpts) *result {
	r := &result{Workload: name, Metrics: map[string]sample{}}
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return r.fail(err)
	}
	base := runtime.NumGoroutine()
	w, setups, err := setUp(name, o)
	if err != nil {
		return r.fail(err)
	}
	r.Config = w.config()
	l := runOps(w, o.seconds, false)
	r.Attempted, r.Failed, r.WallS = l.ops, l.failed, l.wall.Seconds()
	done := float64(l.ops - l.failed)
	if done > 0 {
		r.Metrics["ops_per_s"] = sample{l.opsPerSecond(), "1/s", l.ops}
		r.Metrics["op_ms_p50"] = sample{median(l.opMS), "ms", len(l.opMS)}
		r.Metrics["allocs_per_op"] = sample{float64(l.mallocs) / done, "count", l.ops}
		r.Metrics["alloc_kb_per_op"] = sample{float64(l.bytes) / 1024 / done, "KiB", l.ops}
	}
	r.Metrics["setup_s"] = sample{median(setups), "s", len(setups)}
	finish(w, r, l.err, base)
	return r
}
