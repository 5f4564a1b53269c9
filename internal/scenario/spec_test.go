package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"edgeslice/internal/netsim"
)

func validSpec() Spec {
	return Spec{
		Name:   "test",
		NumRAs: 2,
		Slices: []SliceSpec{
			{Tenant: "a", App: netsim.HeavyTrafficApp,
				Traffic: TrafficSpec{Kind: TrafficConstant, Lambda: 8}},
			{Tenant: "b", App: netsim.HeavyComputeApp,
				Traffic: TrafficSpec{Kind: TrafficVariable, Lo: 4, Hi: 10, BlockLen: 5}},
		},
		Periods:    4,
		T:          10,
		Algorithms: []string{"taro"},
		Seed:       7,
		Events: []Event{
			{Kind: EventFlashCrowd, At: 10, Duration: 5, Slice: 0, Factor: 2},
		},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := validSpec()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

func TestBuiltinsJSONRoundTrip(t *testing.T) {
	for _, name := range List() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeJSON(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(spec, got) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeJSON(strings.NewReader(`{"name": "x", "bogus_field": 1}`))
	if err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestSpecValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero RAs", func(s *Spec) { s.NumRAs = 0 }},
		{"no slices", func(s *Spec) { s.Slices = nil }},
		{"zero periods", func(s *Spec) { s.Periods = 0 }},
		{"zero T", func(s *Spec) { s.T = 0 }},
		{"no algorithms", func(s *Spec) { s.Algorithms = nil }},
		{"bad algorithm", func(s *Spec) { s.Algorithms = []string{"simulated-annealing"} }},
		{"empty tenant", func(s *Spec) { s.Slices[0].Tenant = "" }},
		{"bad app", func(s *Spec) { s.Slices[0].App.FrameResolution = 0 }},
		{"bad traffic kind", func(s *Spec) { s.Slices[0].Traffic.Kind = "sinusoid" }},
		{"negative lambda", func(s *Spec) { s.Slices[0].Traffic = TrafficSpec{Kind: TrafficConstant, Lambda: -1} }},
		{"variable hi < lo", func(s *Spec) { s.Slices[1].Traffic = TrafficSpec{Kind: TrafficVariable, Lo: 9, Hi: 4, BlockLen: 5} }},
		{"variable zero block", func(s *Spec) { s.Slices[1].Traffic = TrafficSpec{Kind: TrafficVariable, Lo: 4, Hi: 9} }},
		{"diurnal without trace", func(s *Spec) { s.Slices[0].Traffic = TrafficSpec{Kind: TrafficDiurnal, Scale: 5} }},
		{"diurnal zero scale", func(s *Spec) {
			s.Trace = &TraceSpec{Areas: 2}
			s.Slices[0].Traffic = TrafficSpec{Kind: TrafficDiurnal}
		}},
		{"event past horizon", func(s *Spec) { s.Events[0].At = 1000 }},
		{"event negative at", func(s *Spec) { s.Events[0].At = -1 }},
		{"event bad slice", func(s *Spec) { s.Events[0].Slice = 5 }},
		{"event zero duration", func(s *Spec) { s.Events[0].Duration = 0 }},
		{"event zero factor", func(s *Spec) { s.Events[0].Factor = 0 }},
		{"event infinite factor", func(s *Spec) { s.Events[0].Factor = math.Inf(1) }},
		{"event NaN factor", func(s *Spec) { s.Events[0].Factor = math.NaN() }},
		{"event unknown kind", func(s *Spec) { s.Events[0].Kind = "comet-strike" }},
		{"degrade factor above one", func(s *Spec) {
			s.Events = []Event{{Kind: EventRADegrade, At: 5, RA: 0, Factor: 1.5}}
		}},
		{"degrade bad RA", func(s *Spec) {
			s.Events = []Event{{Kind: EventRADegrade, At: 5, RA: 7, Factor: 0.5}}
		}},
		{"admit bad slice", func(s *Spec) {
			s.Events = []Event{{Kind: EventSliceAdmit, At: 5, Slice: -1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := validSpec()
			tc.mutate(&spec)
			if err := spec.Validate(); err == nil {
				t.Errorf("Validate accepted a spec with %s", tc.name)
			}
		})
	}
}

func TestSpecValidateAcceptsValid(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUminVectorDefaults(t *testing.T) {
	spec := validSpec()
	spec.Slices[1].UminPerPeriod = -80
	got := spec.UminVector()
	want := []float64{-50, -80}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UminVector = %v, want %v", got, want)
	}
}
