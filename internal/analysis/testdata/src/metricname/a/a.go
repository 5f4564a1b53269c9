// Package a exercises the metricname analyzer against a local Registry
// mirror of internal/telemetry's API (matched by type name, so the façade
// re-export is covered too).
package a

import "fmt"

type Registry struct{}

func (r *Registry) CounterFunc(name, help string, fn func() uint64) {}
func (r *Registry) GaugeFunc(name, help string, fn func() float64)  {}

const perRA = "edgeslice_ra_steps_total"

var nameCache []string

// Per-call formatting is the bug: flagged.
func Formatted(reg *Registry, ra int) {
	reg.CounterFunc(fmt.Sprintf("edgeslice_ra_%d_total", ra), "h", nil) // want `metric name built with fmt\.Sprintf`
}

func FormattedGauge(reg *Registry, slice int) {
	reg.GaugeFunc(fmt.Sprintf(`edgeslice_sla{slice="%d"}`, slice), "h", nil) // want `metric name built with fmt\.Sprintf`
}

// Non-constant concatenation is the same bug in cheaper clothes.
func Concatenated(reg *Registry, suffix string) {
	reg.GaugeFunc("edgeslice_"+suffix, "h", nil) // want `string concatenation`
}

// Constants — including folded constant concatenation — are fine.
func Constant(reg *Registry) {
	reg.CounterFunc(perRA, "h", nil)
	reg.CounterFunc("edgeslice_"+"periods_total", "h", nil)
}

// Reading a precomputed name cache is the sanctioned dynamic pattern.
func Cached(reg *Registry, i int) {
	reg.CounterFunc(nameCache[i], "h", nil)
}

// Other receivers with the same method names are not registries.
type notRegistry struct{}

func (notRegistry) CounterFunc(name, help string, fn func() uint64) {}

func OtherReceiver(n notRegistry, i int) {
	n.CounterFunc(fmt.Sprintf("x%d", i), "h", nil)
}

// One-time bounded registration may be justified.
func Justified(reg *Registry, slice int) {
	//edgeslice:dynname formatted once per slice at startup; bounded by NumSlices
	reg.GaugeFunc(fmt.Sprintf(`edgeslice_sla{slice="%d"}`, slice), "h", nil)
}

// An unjustified suppression is reported.
func BadJustification(reg *Registry, slice int) {
	//edgeslice:dynname
	reg.GaugeFunc(fmt.Sprintf(`edgeslice_sla{slice="%d"}`, slice), "h", nil) // want `requires a non-empty reason`
}
