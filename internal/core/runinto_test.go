package core

import (
	"reflect"
	"runtime"
	"testing"
)

// TestRunPeriodsIntoRejectsMisshapedHistory pins the shape check: a History
// of another system's shape is an error, not an index panic mid-period.
func TestRunPeriodsIntoRejectsMisshapedHistory(t *testing.T) {
	cfg := execTestConfig(AlgoTARO)
	s := deployedSystem(t, cfg)
	I, J, T := cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T
	for _, h := range []*History{NewHistory(I+1, J, T), NewHistory(I, J-1, T), NewStreamingHistory(I, J, T+1, 8)} {
		if err := s.RunPeriodsInto(NewSerialExecutor(), h, 1); err == nil {
			t.Errorf("%dx%dxT%d history accepted by a %dx%dxT%d system", h.NumSlices, h.NumRAs, h.T, I, J, T)
		}
	}
}

// TestRunPeriodsIntoUnderRunPeriodsWith pins that RunPeriodsWith is a new
// History plus RunPeriodsInto and nothing more: a warm period allocates the
// same under both.
func TestRunPeriodsIntoUnderRunPeriodsWith(t *testing.T) {
	cfg := execTestConfig(AlgoEdgeSlice)
	I, J, T := cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T
	s := deployedSystem(t, cfg)
	s.SetRecording(RecordOptions{StreamWindow: 8})
	e := NewSerialExecutor()
	with := testing.AllocsPerRun(5, func() {
		if _, err := s.RunPeriodsWith(e, 1); err != nil {
			t.Fatal(err)
		}
	})
	into := testing.AllocsPerRun(5, func() {
		if err := s.RunPeriodsInto(e, NewStreamingHistory(I, J, T, 8), 1); err != nil {
			t.Fatal(err)
		}
	})
	if with != into {
		t.Errorf("a warm period allocates %v times under RunPeriodsWith, %v under NewStreamingHistory + RunPeriodsInto", with, into)
	}
}

// TestExactRecordingAllocsAmortized is the allocation gate of exact-mode
// recording: 1,000 serial periods of a 3-RA EdgeSlice system, driven one at
// a time into one exact History, allocate at most 32 times in total — the
// History and the doublings of its two record columns, nothing per period.
// A plain build measures 25; under -race the runtime has added up to two,
// and the bound leaves room above that for runtime noise.
func TestExactRecordingAllocsAmortized(t *testing.T) {
	const periods, bound = 1000, 32
	cfg := execTestConfig(AlgoEdgeSlice)
	s := deployedSystem(t, cfg)
	e := NewSerialExecutor()
	if _, err := s.RunPeriodsWith(e, 1); err != nil { // builds the workspace and plan
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h := NewHistory(cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T)
	for p := 0; p < periods; p++ {
		if err := s.RunPeriodsInto(e, h, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > bound {
		t.Errorf("%d exact periods allocated %d times, want <= %d", periods, n, bound)
	}
	if h.Periods() != periods || h.Intervals() != periods*cfg.EnvTemplate.T {
		t.Errorf("recorded %d periods / %d intervals", h.Periods(), h.Intervals())
	}
}

// TestRunPeriodsWithHistoryExtends: RunPeriodsWith sizes a streaming
// History's rings to its one period, and RunPeriodsInto then extends it
// past that run and past the window, growing and wrapping the rings; it
// must still hold what a full-window streaming History holds and answer as
// the exact History of the same run does.
func TestRunPeriodsWithHistoryExtends(t *testing.T) {
	const window, more = 32, 5
	cfg := execTestConfig(AlgoEdgeSlice)
	I, J, T := cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T
	run := func(first func(s *System) *History) *History {
		s := deployedSystem(t, cfg)
		h := first(s)
		if err := s.RunPeriodsInto(NewSerialExecutor(), h, more); err != nil {
			t.Fatal(err)
		}
		return h
	}
	into := func(h *History) func(*System) *History {
		return func(s *System) *History {
			if err := s.RunPeriodsInto(NewSerialExecutor(), h, 1); err != nil {
				t.Fatal(err)
			}
			return h
		}
	}
	got := run(func(s *System) *History {
		s.SetRecording(RecordOptions{StreamWindow: window})
		h, err := s.RunPeriodsWith(NewSerialExecutor(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(h.col[ivKind]); c != T*h.size[ivKind] {
			t.Fatalf("a one-period run's interval ring holds %d bytes, want %d records", c, T)
		}
		return h
	})
	requireSameRun(t, "full-window streaming", run(into(NewStreamingHistory(I, J, T, window))), got)
	exact := run(into(NewHistory(I, J, T)))
	n := exact.Intervals()
	for c := 0; c < got.columns(); c++ {
		if want := exact.IntervalColumn(c)[n-window:]; !reflect.DeepEqual(got.IntervalColumn(c), want) {
			t.Errorf("interval column %d differs from the exact run's last %d records", c, window)
		}
	}
	for p := 0; p < exact.Periods(); p++ {
		_, slaW, primalW, dualW := exact.Period(p)
		if _, sla, primal, dual := got.Period(p); !reflect.DeepEqual(sla, slaW) || primal != primalW || dual != dualW {
			t.Errorf("period %d differs from the exact run's", p)
		}
	}
	for _, lastN := range []int{1, window / 2, window} {
		w, _ := exact.MeanSystemPerf(lastN)
		if g, err := got.MeanSystemPerf(lastN); err != nil || g != w {
			t.Errorf("MeanSystemPerf(%d) = %v (%v), exact %v", lastN, g, err, w)
		}
	}
}
