package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed layer-boundary region. A span covers Calls consecutive
// calls of one exported function (the replay runs each layer's calls for a
// whole interval back to back, so a single clock pair brackets all of them
// and the clock's own cost stays far below the work it times). Spans of one
// op (period, training run, sweep) share Op; Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Calls   int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled tracer
// records nothing, which is how the spans-off half of the overhead
// measurement runs the very same replay code.
type tracer struct {
	mu      sync.Mutex
	enabled bool
	t0      time.Time
	spans   []span
}

func newTracer() *tracer { return &tracer{enabled: true, t0: time.Now()} }

// track is one goroutine's view of the tracer: its open-span stack. The
// coordinator loop and every agent loop own one each.
type track struct {
	tr    *tracer
	stack []int
	op    int
}

func (t *tracer) track() *track { return &track{tr: t} }

// parent is the innermost open span of this track, -1 when none is open.
func (k *track) parent() int {
	if n := len(k.stack); n > 0 {
		return k.stack[n-1]
	}
	return -1
}

// begin opens a span covering calls calls and returns its index.
func (k *track) begin(name string, calls int) int {
	t := k.tr
	if t == nil || !t.enabled {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: k.parent(), Op: k.op, Calls: calls})
	t.mu.Unlock()
	k.stack = append(k.stack, id)
	return id
}

// end closes the span begin returned.
func (k *track) end(id int) {
	if id < 0 {
		return
	}
	t := k.tr
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
	k.stack = k.stack[:len(k.stack)-1]
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Spans   int     `json:"spans"`
	Calls   int     `json:"calls"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	durs    []int64 // per-span durations, for medians
	PerCall float64 `json:"ns_per_call"`
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.EndNS - s.StartNS
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// aggregate computes total and self time per span name.
func aggregate(spans []span) map[string]*spanStat {
	self := selfTimes(spans)
	out := make(map[string]*spanStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Spans++
		st.Calls += s.Calls
		st.TotalNS += d
		st.SelfNS += self[i]
		st.durs = append(st.durs, d)
	}
	for _, st := range out {
		if st.Calls > 0 {
			st.PerCall = float64(st.TotalNS) / float64(st.Calls)
		}
	}
	return out
}

// medianMS returns the median span duration of one name in milliseconds.
func (st *spanStat) medianMS() float64 {
	xs := make([]float64, len(st.durs))
	for i, d := range st.durs {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// layerOf is the module a span name belongs to: the part before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer over the subtree of every span named
// root, and returns those roots' total duration beside it.
func layerSelf(spans []span, root string) (perLayer map[string]int64, rootTotal int64) {
	self := selfTimes(spans)
	under := make([]bool, len(spans)) // a parent always precedes its children
	perLayer = make(map[string]int64)
	for i, s := range spans {
		under[i] = s.Name == root || (s.Parent >= 0 && under[s.Parent])
		if !under[i] {
			continue
		}
		if s.Name == root {
			rootTotal += s.EndNS - s.StartNS
		}
		perLayer[layerOf(s.Name)] += self[i]
	}
	return perLayer, rootTotal
}

// traceFile is what -trace writes next to the results.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Scale    string               `json:"scale"`
	Note     string               `json:"note"`
	ByName   map[string]*spanStat `json:"by_name"`
	Spans    []span               `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, sc scale, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Scale: sc.Name,
		Note:   "span = {name, start_ns, end_ns, parent (index into spans, -1 = root), op, calls}; self time = duration - direct children",
		ByName: aggregate(spans), Spans: spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// add records a finished span whose bounds were observed elsewhere (a
// Progress callback sees only completion times).
func (k *track) add(name string, start, end time.Time, calls int) {
	t := k.tr
	if t == nil || !t.enabled {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: k.parent(), Op: k.op, Calls: calls,
	})
	t.mu.Unlock()
}
