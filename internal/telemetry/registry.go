package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Registry is a named collection of counter and gauge funcs with a
// Prometheus text-format exposition (WritePrometheus) and a flat snapshot
// for JSON health endpoints. Re-registering a name of the same kind
// replaces its func, so independent subsystems can share one registry
// without coordination. Registering an existing name as a different kind
// panics — that is a programming error, not runtime input.
//
// Metric names may carry a Prometheus label suffix (`name{key="v"}`); the
// HELP/TYPE header is emitted once per base name.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

type family struct {
	name, help, kind string // kind: counter | gauge

	counterFn func() uint64
	gaugeFn   func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string) *family {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// CounterFunc registers a counter whose value is read from fn at
// collection time (for subsystems that keep their own atomics).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, "counter")
	r.mu.Lock()
	defer r.mu.Unlock()
	f.counterFn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at collection
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge")
	r.mu.Lock()
	defer r.mu.Unlock()
	f.gaugeFn = fn
}

// baseName strips a `{label="v"}` suffix.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, len(order))
	for i, name := range order {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	headered := make(map[string]bool)
	for _, f := range fams {
		base := baseName(f.name)
		if !headered[base] {
			headered[base] = true
			if f.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, f.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, f.kind); err != nil {
				return err
			}
		}
		var err error
		if f.kind == "counter" {
			_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.counterFn())
		} else {
			_, err = fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a flat name→value view of the registry's counters and
// gauges — the payload health endpoints embed.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	out := make(map[string]float64, len(fams))
	for _, f := range fams {
		if f.kind == "counter" {
			out[f.name] = float64(f.counterFn())
		} else {
			out[f.name] = f.gaugeFn()
		}
	}
	return out
}
