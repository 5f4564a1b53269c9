package scenario

import (
	"fmt"
	"math"

	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/traffic"
)

// EventKind names a timed scenario event.
type EventKind string

// Supported event kinds.
const (
	// EventFlashCrowd multiplies a slice's arrival rate by Factor for
	// Duration intervals starting at At.
	EventFlashCrowd EventKind = "flash-crowd"
	// EventRateRamp ramps a slice's rate multiplier linearly from 1 to
	// Factor over Duration intervals starting at At, then holds Factor.
	EventRateRamp EventKind = "rate-ramp"
	// EventRADegrade scales an RA's capacity to Factor at the period
	// boundary containing At (RA = -1 degrades every RA).
	EventRADegrade EventKind = "ra-degrade"
	// EventRARecover restores an RA's capacity to nominal at the period
	// boundary containing At.
	EventRARecover EventKind = "ra-recover"
	// EventSliceAdmit opens a slice's admission gate at At: the slice
	// receives no traffic before At and is registered with the slice
	// manager when the event fires.
	EventSliceAdmit EventKind = "slice-admit"
	// EventSliceTeardown closes a slice's admission gate at At and
	// releases the slice from the slice manager.
	EventSliceTeardown EventKind = "slice-teardown"
)

// Event is one timed entry of a scenario's traffic program. Traffic-shaping
// events (flash-crowd, rate-ramp, admit, teardown) act at exact interval
// granularity because they are compiled into the slice's traffic source;
// infrastructure events (ra-degrade, ra-recover) are applied by the runner
// at the boundary of the period containing At — the same cadence at which
// Algorithm 1 redistributes coordinating information.
type Event struct {
	Kind     EventKind `json:"kind"`
	At       int       `json:"at"`
	Duration int       `json:"duration,omitempty"`
	Slice    int       `json:"slice,omitempty"`
	RA       int       `json:"ra,omitempty"`
	Factor   float64   `json:"factor,omitempty"`
}

func (ev Event) validate(scen string, idx, numSlices, numRAs, horizon int) error {
	if ev.At < 0 || ev.At >= horizon {
		return fmt.Errorf("scenario %s: event %d (%s): at %d outside horizon [0, %d)", scen, idx, ev.Kind, ev.At, horizon)
	}
	switch ev.Kind {
	case EventFlashCrowd, EventRateRamp:
		if ev.Slice < 0 || ev.Slice >= numSlices {
			return fmt.Errorf("scenario %s: event %d (%s): slice %d out of range", scen, idx, ev.Kind, ev.Slice)
		}
		if ev.Duration <= 0 {
			return fmt.Errorf("scenario %s: event %d (%s): duration %d must be positive", scen, idx, ev.Kind, ev.Duration)
		}
		if !(ev.Factor > 0) || math.IsInf(ev.Factor, 1) {
			return fmt.Errorf("scenario %s: event %d (%s): factor %v must be positive and finite", scen, idx, ev.Kind, ev.Factor)
		}
	case EventRADegrade:
		if ev.RA < -1 || ev.RA >= numRAs {
			return fmt.Errorf("scenario %s: event %d (%s): ra %d out of range", scen, idx, ev.Kind, ev.RA)
		}
		if ev.Factor <= 0 || ev.Factor > 1 {
			return fmt.Errorf("scenario %s: event %d (%s): factor %v must be in (0, 1]", scen, idx, ev.Kind, ev.Factor)
		}
	case EventRARecover:
		if ev.RA < -1 || ev.RA >= numRAs {
			return fmt.Errorf("scenario %s: event %d (%s): ra %d out of range", scen, idx, ev.Kind, ev.RA)
		}
	case EventSliceAdmit, EventSliceTeardown:
		if ev.Slice < 0 || ev.Slice >= numSlices {
			return fmt.Errorf("scenario %s: event %d (%s): slice %d out of range", scen, idx, ev.Kind, ev.Slice)
		}
	default:
		return fmt.Errorf("scenario %s: event %d: unknown kind %q", scen, idx, ev.Kind)
	}
	return nil
}

// isRuntime reports whether the event is applied by the runner mid-run (as
// opposed to being compiled into a traffic source, as slice admission and
// teardown are).
func (ev Event) isRuntime() bool {
	return ev.Kind == EventRADegrade || ev.Kind == EventRARecover
}

// baseSource builds slice i's declared base traffic source for RA ra,
// without any event modulation. Learning algorithms train against it:
// deployment events are anchored to absolute run intervals, which have no
// meaning inside the offline training episodes.
func (s Spec) baseSource(i, ra int, seed int64, trace *traffic.Trace) (traffic.Source, error) {
	ts := s.Slices[i].Traffic
	switch ts.Kind {
	case TrafficConstant:
		return traffic.ConstantSource{Lambda: ts.Lambda}, nil
	case TrafficVariable:
		return traffic.VariableSource{
			Lo: ts.Lo, Hi: ts.Hi, BlockLen: ts.BlockLen,
			Seed: seed + ts.SeedOffset + int64(i)*131 + int64(ra)*17,
		}, nil
	case TrafficDiurnal:
		profile, err := trace.AreaProfile(ra%trace.NumAreas(), ts.Scale)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: slice %d: %w", s.Name, i, err)
		}
		return profile, nil
	default:
		return nil, fmt.Errorf("scenario %s: slice %d: unknown traffic kind %q", s.Name, i, ts.Kind)
	}
}

// compileSource builds slice i's deployment traffic source for RA ra: the
// declared base source wrapped by the modulators of every traffic event
// targeting the slice. The result is a pure function of the interval, so
// replicas can compile independently and still agree exactly.
func (s Spec) compileSource(i, ra int, seed int64, trace *traffic.Trace) (traffic.Source, error) {
	base, err := s.baseSource(i, ra, seed, trace)
	if err != nil {
		return nil, err
	}

	var mods []traffic.Modulator
	admitted := Event{At: 0}
	hasAdmit, hasTeardown := false, false
	teardown := Event{}
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventFlashCrowd:
			if ev.Slice == i {
				mods = append(mods, traffic.Pulse{Start: ev.At, Duration: ev.Duration, Factor: ev.Factor})
			}
		case EventRateRamp:
			if ev.Slice == i {
				mods = append(mods, traffic.Ramp{Start: ev.At, Duration: ev.Duration, To: ev.Factor})
			}
		case EventSliceAdmit:
			if ev.Slice == i {
				admitted, hasAdmit = ev, true
			}
		case EventSliceTeardown:
			if ev.Slice == i {
				teardown, hasTeardown = ev, true
			}
		}
	}
	if hasAdmit || hasTeardown {
		gate := traffic.Gate{Start: admitted.At}
		if hasTeardown {
			gate.End = teardown.At
		}
		mods = append(mods, gate)
	}
	if len(mods) == 0 {
		return base, nil
	}
	return traffic.Modulated{Base: base, Mods: mods}, nil
}

// systemConfig compiles the spec into a core.Config for one (algorithm,
// seed) replica, including per-RA environment overrides when the scenario
// uses per-area diurnal traffic.
func (s Spec) systemConfig(algo core.Algorithm, seed int64) (core.Config, error) {
	var trace *traffic.Trace
	if s.Trace != nil && s.Trace.Areas > 0 {
		// The trace is derived from the scenario's base seed — not the
		// replica seed — so every replica runs the same city.
		tr, err := traffic.SynthesizeTrentoLike(mathutil.NewRNG(s.Seed+541), s.Trace.Areas)
		if err != nil {
			return core.Config{}, err
		}
		trace = tr
	}

	env := netsim.DefaultExperimentConfig()
	env.NumSlices = len(s.Slices)
	env.T = s.T
	env.Apps = make([]netsim.AppProfile, len(s.Slices))
	for i, sl := range s.Slices {
		env.Apps[i] = sl.App
	}

	cfg := core.DefaultConfig()
	cfg.NumRAs = s.NumRAs
	cfg.Algo = algo
	cfg.Seed = seed
	cfg.Umin = s.UminVector()
	if s.TrainSteps > 0 {
		cfg.TrainSteps = s.TrainSteps
	}

	perRA := make([]*netsim.Config, s.NumRAs)
	trainPerRA := make([]*netsim.Config, s.NumRAs)
	for j := 0; j < s.NumRAs; j++ {
		raEnv := env
		raEnv.Sources = make([]traffic.Source, len(s.Slices))
		trainEnv := env
		trainEnv.Sources = make([]traffic.Source, len(s.Slices))
		for i := range s.Slices {
			src, err := s.compileSource(i, j, seed, trace)
			if err != nil {
				return core.Config{}, err
			}
			raEnv.Sources[i] = src
			base, err := s.baseSource(i, j, seed, trace)
			if err != nil {
				return core.Config{}, err
			}
			trainEnv.Sources[i] = base
		}
		perRA[j] = &raEnv
		trainPerRA[j] = &trainEnv
	}
	cfg.EnvTemplate = *perRA[0]
	cfg.EnvPerRA = perRA
	cfg.TrainEnvPerRA = trainPerRA
	return cfg, nil
}
