package scenario

import (
	"fmt"
	"sort"

	"edgeslice/internal/netsim"
)

// builtins maps scenario names to constructors. Built-in scenarios default
// to the non-learning algorithms so they run in seconds; set "algorithms"
// and "train_steps" in a JSON spec to evaluate the DRL variants on the same
// workload.
var builtins = map[string]func() Spec{
	"steady-poisson":    SteadyPoisson,
	"diurnal-city":      DiurnalCity,
	"flash-crowd":       FlashCrowd,
	"slice-churn":       SliceChurn,
	"ra-failure":        RAFailure,
	"heterogeneous-mix": HeterogeneousMix,
}

// List returns the names of all built-in scenarios, sorted.
func List() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns a built-in scenario by name.
func Get(name string) (Spec, error) {
	fn, ok := builtins[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, List())
	}
	return fn(), nil
}

// SteadyPoisson is the paper's prototype workload (Sec. VII-C): two video
// analytics slices under stationary Poisson(≈10) arrivals, compared across
// the two non-learning baselines.
func SteadyPoisson() Spec {
	return Spec{
		Name:        "steady-poisson",
		Description: "Prototype workload: 2 slices, Poisson(10) arrivals, baseline comparison",
		NumRAs:      2,
		Slices: []SliceSpec{
			{Tenant: "tenant-hd", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficVariable, Lo: 6, Hi: 14, BlockLen: 10, SeedOffset: 11}},
			{Tenant: "tenant-ai", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficVariable, Lo: 6, Hi: 14, BlockLen: 10, SeedOffset: 23}},
		},
		Periods:    10,
		T:          10,
		Algorithms: []string{"taro", "equal"},
		Seed:       1,
	}
}

// DiurnalCity is the trace-driven simulation workload (Sec. VII-D): per-RA
// diurnal area profiles from the synthesized Trento-like trace, T = 24
// intervals per period (one per hour).
func DiurnalCity() Spec {
	return Spec{
		Name:        "diurnal-city",
		Description: "Trace-driven city: per-RA diurnal traffic from a Trento-like trace",
		NumRAs:      4,
		Slices: []SliceSpec{
			{Tenant: "tenant-hd", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficDiurnal, Scale: 10}},
			{Tenant: "tenant-ai", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficDiurnal, Scale: 8}},
		},
		Periods:    6,
		T:          24,
		Algorithms: []string{"taro"},
		Seed:       1,
		Trace:      &TraceSpec{Areas: 4},
	}
}

// FlashCrowd stresses non-stationarity: a stationary baseline with a 3x
// arrival burst on the traffic-heavy slice in the middle of the run.
func FlashCrowd() Spec {
	return Spec{
		Name:        "flash-crowd",
		Description: "Stationary load with a 3x flash crowd on slice 0 during intervals [40, 60)",
		NumRAs:      2,
		Slices: []SliceSpec{
			{Tenant: "tenant-hd", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
			{Tenant: "tenant-ai", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
		},
		Periods:    10,
		T:          10,
		Algorithms: []string{"taro"},
		Seed:       1,
		Events: []Event{
			{Kind: EventFlashCrowd, At: 40, Duration: 20, Slice: 0, Factor: 3},
		},
	}
}

// SliceChurn exercises the slice lifecycle: a third slice is admitted
// mid-run and torn down again (its traffic gate opens and closes) while the
// other tenants keep running.
func SliceChurn() Spec {
	return Spec{
		Name:        "slice-churn",
		Description: "Third slice admitted at interval 30 and torn down at interval 70",
		NumRAs:      2,
		Slices: []SliceSpec{
			{Tenant: "tenant-hd", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
			{Tenant: "tenant-ai", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
			{Tenant: "tenant-pop-up", App: netsim.AppProfile{Name: "video-md-yolo416", FrameResolution: 300, ModelSize: 416},
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 6}},
		},
		Periods:    10,
		T:          10,
		Algorithms: []string{"taro"},
		Seed:       1,
		Events: []Event{
			{Kind: EventSliceAdmit, At: 30, Slice: 2},
			{Kind: EventSliceTeardown, At: 70, Slice: 2},
		},
	}
}

// RAFailure exercises infrastructure events: RA 1 degrades to 30% capacity
// mid-run and recovers later, while traffic stays constant.
func RAFailure() Spec {
	return Spec{
		Name:        "ra-failure",
		Description: "RA 1 degrades to 30% capacity during periods 3-6, then recovers",
		NumRAs:      2,
		Slices: []SliceSpec{
			{Tenant: "tenant-hd", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
			{Tenant: "tenant-ai", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
		},
		Periods:    10,
		T:          10,
		Algorithms: []string{"taro"},
		Seed:       1,
		Events: []Event{
			{Kind: EventRADegrade, At: 30, RA: 1, Factor: 0.3},
			{Kind: EventRARecover, At: 70, RA: 1},
		},
	}
}

// HeterogeneousMix stresses a diverse slice portfolio (the Sl-EDGE-style
// heterogeneous edge mix): four slices with different app profiles and
// traffic shapes, including a gradual demand ramp, across three RAs.
func HeterogeneousMix() Spec {
	return Spec{
		Name:        "heterogeneous-mix",
		Description: "4 heterogeneous slices across 3 RAs with a 2x demand ramp on slice 3",
		NumRAs:      3,
		Slices: []SliceSpec{
			{Tenant: "tenant-hd", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 6}},
			{Tenant: "tenant-ai", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficVariable, Lo: 4, Hi: 10, BlockLen: 8, SeedOffset: 37}},
			{Tenant: "tenant-md", App: netsim.AppProfile{Name: "video-md-yolo416", FrameResolution: 300, ModelSize: 416},
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 5}},
			{Tenant: "tenant-iot", App: netsim.AppProfile{Name: "video-sd-yolo320", FrameResolution: 100, ModelSize: 320},
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 4}},
		},
		Periods:    8,
		T:          10,
		Algorithms: []string{"taro", "equal"},
		Seed:       1,
		Events: []Event{
			{Kind: EventRateRamp, At: 20, Duration: 40, Slice: 3, Factor: 2},
		},
	}
}
