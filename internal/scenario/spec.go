// Package scenario implements the declarative workload-scenario engine: a
// JSON-codable specification of an EdgeSlice deployment and its traffic
// program (slices, apps, traffic sources, and a timed event list covering
// flash crowds, rate ramps, RA degradation/recovery, and slice
// admission/teardown), a registry of built-in named scenarios, and a
// parallel sharded runner that fans replicas (seeds × algorithms) across a
// bounded worker pool and aggregates histories into summary statistics.
//
// The paper evaluates EdgeSlice under one prototype workload (Poisson(10)
// arrivals, Sec. VII-C) and one trace-driven simulation (Trento diurnal
// traffic, Sec. VII-D); the scenario engine generalizes both into a single
// declarative form so new workloads are data, not code. See DESIGN.md §7.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
)

// Traffic source kinds accepted by TrafficSpec.Kind.
const (
	TrafficConstant = "constant" // stationary Poisson(Lambda)
	TrafficVariable = "variable" // per-block uniform rate in [Lo, Hi]
	TrafficDiurnal  = "diurnal"  // per-RA area profile from the synthesized trace
)

// TrafficSpec declares one slice's base traffic source. It compiles to a
// traffic.Source; scenario events wrap the compiled source with modulators.
type TrafficSpec struct {
	Kind string `json:"kind"`

	// Constant.
	Lambda float64 `json:"lambda,omitempty"`

	// Variable: a fresh rate is drawn uniformly from [Lo, Hi] every
	// BlockLen intervals, seeded by the replica seed plus SeedOffset —
	// the rate-block sequence differs per replica, like arrival noise.
	Lo         float64 `json:"lo,omitempty"`
	Hi         float64 `json:"hi,omitempty"`
	BlockLen   int     `json:"block_len,omitempty"`
	SeedOffset int64   `json:"seed_offset,omitempty"`

	// Diurnal: the RA's area profile (RA j uses trace area j mod Areas)
	// scaled so the daily mean arrival rate is Scale.
	Scale float64 `json:"scale,omitempty"`
}

// Validate checks the traffic declaration.
func (ts TrafficSpec) Validate() error {
	switch ts.Kind {
	case TrafficConstant:
		if ts.Lambda < 0 {
			return fmt.Errorf("scenario: constant traffic lambda %v must be non-negative", ts.Lambda)
		}
	case TrafficVariable:
		if ts.Lo < 0 || ts.Hi < ts.Lo {
			return fmt.Errorf("scenario: variable traffic needs 0 <= lo <= hi, got [%v, %v]", ts.Lo, ts.Hi)
		}
		if ts.BlockLen <= 0 {
			return fmt.Errorf("scenario: variable traffic block_len %d must be positive", ts.BlockLen)
		}
	case TrafficDiurnal:
		if ts.Scale <= 0 {
			return fmt.Errorf("scenario: diurnal traffic scale %v must be positive", ts.Scale)
		}
	default:
		return fmt.Errorf("scenario: unknown traffic kind %q", ts.Kind)
	}
	return nil
}

// SliceSpec declares one network slice: its tenant, application profile,
// base traffic, and SLA.
type SliceSpec struct {
	Tenant  string            `json:"tenant"`
	App     netsim.AppProfile `json:"app"`
	Traffic TrafficSpec       `json:"traffic"`
	// UminPerPeriod is the slice's SLA (Eq. 2); 0 selects core.PaperUmin.
	UminPerPeriod float64 `json:"umin_per_period,omitempty"`
}

// TraceSpec configures the synthesized diurnal trace backing "diurnal"
// traffic kinds; RA j draws its profile from area j mod Areas.
type TraceSpec struct {
	Areas int `json:"areas"`
}

// Spec is a complete declarative workload scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Topology: the number of resource autonomies and the slice mix.
	NumRAs int         `json:"num_ras"`
	Slices []SliceSpec `json:"slices"`

	// Schedule: Periods orchestration periods of T intervals each.
	Periods int `json:"periods"`
	T       int `json:"intervals_per_period"`

	// Algorithms to fan replicas across ("edgeslice", "edgeslice-nt",
	// "taro", "equal").
	Algorithms []string `json:"algorithms"`

	// TrainSteps per agent for learning algorithms (0 = core default).
	TrainSteps int `json:"train_steps,omitempty"`

	// Seed is the base seed; replica r derives its seed deterministically
	// from it.
	Seed int64 `json:"seed"`

	// Trace backs diurnal traffic kinds; required iff any slice uses one.
	Trace *TraceSpec `json:"trace,omitempty"`

	// Events is the timed event list, applied in order.
	Events []Event `json:"events,omitempty"`
}

// Validate checks the whole scenario for structural and referential
// integrity (every event must target a declared slice or RA, traffic kinds
// must be complete, algorithms must parse).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.NumRAs <= 0 {
		return fmt.Errorf("scenario %s: num_ras %d must be positive", s.Name, s.NumRAs)
	}
	if len(s.Slices) == 0 {
		return fmt.Errorf("scenario %s: needs at least one slice", s.Name)
	}
	if s.Periods <= 0 || s.T <= 0 {
		return fmt.Errorf("scenario %s: periods %d and intervals_per_period %d must be positive", s.Name, s.Periods, s.T)
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("scenario %s: needs at least one algorithm", s.Name)
	}
	needsTrain := false
	for _, name := range s.Algorithms {
		algo, err := core.ParseAlgorithm(name)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if algo.IsLearning() {
			needsTrain = true
		}
	}
	if needsTrain && s.TrainSteps < 0 {
		return fmt.Errorf("scenario %s: train_steps %d must be non-negative", s.Name, s.TrainSteps)
	}
	usesDiurnal := false
	for i, sl := range s.Slices {
		if sl.Tenant == "" {
			return fmt.Errorf("scenario %s: slice %d has no tenant", s.Name, i)
		}
		if err := sl.App.Validate(); err != nil {
			return fmt.Errorf("scenario %s: slice %d: %w", s.Name, i, err)
		}
		if err := sl.Traffic.Validate(); err != nil {
			return fmt.Errorf("scenario %s: slice %d: %w", s.Name, i, err)
		}
		if sl.Traffic.Kind == TrafficDiurnal {
			usesDiurnal = true
		}
	}
	if usesDiurnal && (s.Trace == nil || s.Trace.Areas <= 0) {
		return fmt.Errorf("scenario %s: diurnal traffic needs a trace with areas > 0", s.Name)
	}
	horizon := s.Periods * s.T
	for i, ev := range s.Events {
		if err := ev.validate(s.Name, i, len(s.Slices), s.NumRAs, horizon); err != nil {
			return err
		}
	}
	return s.validateLifecycles()
}

// validateLifecycles checks cross-event consistency of the slice lifecycle:
// at most one admit and one teardown per slice, and the teardown strictly
// after the admission (a slice without an admit event is admitted at
// interval 0). Catching this here avoids paying for training before a
// mid-run failure, and keeps the compiled admission gates well-formed.
func (s Spec) validateLifecycles() error {
	admits := make(map[int]int)
	teardowns := make(map[int]int)
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventSliceAdmit:
			if _, dup := admits[ev.Slice]; dup {
				return fmt.Errorf("scenario %s: slice %d has multiple admit events", s.Name, ev.Slice)
			}
			admits[ev.Slice] = ev.At
		case EventSliceTeardown:
			if _, dup := teardowns[ev.Slice]; dup {
				return fmt.Errorf("scenario %s: slice %d has multiple teardown events", s.Name, ev.Slice)
			}
			teardowns[ev.Slice] = ev.At
		}
	}
	// Check slices in sorted order so a spec with several bad lifecycles
	// always reports the same one.
	tornDown := make([]int, 0, len(teardowns))
	for slice := range teardowns {
		tornDown = append(tornDown, slice)
	}
	sort.Ints(tornDown)
	for _, slice := range tornDown {
		down := teardowns[slice]
		up := admits[slice] // zero when the slice is provisioned at start
		if down <= up {
			return fmt.Errorf("scenario %s: slice %d torn down at interval %d, not after its admission at %d",
				s.Name, slice, down, up)
		}
	}
	return nil
}

// DecodeJSON parses and validates a scenario spec.
func DecodeJSON(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// UminVector returns the per-slice SLA vector, substituting the paper's
// core.PaperUmin for unset entries.
func (s Spec) UminVector() []float64 {
	out := make([]float64, len(s.Slices))
	for i, sl := range s.Slices {
		if sl.UminPerPeriod != 0 {
			out[i] = sl.UminPerPeriod
		} else {
			out[i] = core.PaperUmin
		}
	}
	return out
}
