package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"edgeslice/internal/rcnet"
	"edgeslice/internal/telemetry"
)

// TestRunPeriodsIntoMatchesWholeRun drives every in-process engine one
// period at a time into one caller-owned History with the history log
// attached through SetRecording — the scenario runner's pattern — and
// requires the History and the log bytes of one
// uninterrupted serial RunPeriodsWith call, in exact and streaming mode.
func TestRunPeriodsIntoMatchesWholeRun(t *testing.T) {
	const periods = 4
	cfg := execTestConfig(AlgoEdgeSlice)
	I, J, T := cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T
	for _, window := range []int{0, 16} {
		// The History RunPeriodsInto records into is the caller's either way.
		logged := func(s *System) *bytes.Buffer {
			var buf bytes.Buffer
			hlog, err := NewHistoryLog(telemetry.NewLogWriter(&buf), I, J, T)
			if err != nil {
				t.Fatal(err)
			}
			s.SetRecording(RecordOptions{StreamWindow: window, Log: hlog})
			return &buf
		}
		ref := deployedSystem(t, cfg)
		refLog := logged(ref)
		hRef, err := ref.RunPeriodsWith(NewSerialExecutor(), periods)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Executor{NewSerialExecutor(), NewBatchedExecutor(4)} {
			label := fmt.Sprintf("%s window=%d", e.Name(), window)
			s := deployedSystem(t, cfg)
			log := logged(s)
			h := NewHistory(I, J, T)
			if window > 0 {
				h = NewStreamingHistory(I, J, T, window)
			}
			for p := 0; p < periods; p++ {
				if err := s.RunPeriodsInto(e, h, 1); err != nil {
					t.Fatal(err)
				}
			}
			requireSameRun(t, label, hRef, h)
			if !bytes.Equal(log.Bytes(), refLog.Bytes()) {
				t.Errorf("%s: history log differs from the whole run's", label)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRemoteRunPeriodsIntoMatchesWholeRun drives the remote engine (a
// loopback hub, one in-process RunAgent loop per RA) one period per call,
// as the remote benchmark does, into one caller-owned History with the
// history log attached through SetRecording: the period ids broadcast and
// the periods the hub marks finished continue across calls, so the History
// and the log bytes equal one uninterrupted serial RunPeriodsWith call's.
func TestRemoteRunPeriodsIntoMatchesWholeRun(t *testing.T) {
	const periods = 4
	cfg := execTestConfig(AlgoEdgeSlice)
	I, J, T := cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T
	logged := func(s *System) *bytes.Buffer {
		var buf bytes.Buffer
		hlog, err := NewHistoryLog(telemetry.NewLogWriter(&buf), I, J, T)
		if err != nil {
			t.Fatal(err)
		}
		s.SetRecording(RecordOptions{Log: hlog})
		return &buf
	}
	ref := deployedSystem(t, cfg)
	refLog := logged(ref)
	hRef, err := ref.RunPeriodsWith(NewSerialExecutor(), periods)
	if err != nil {
		t.Fatal(err)
	}

	hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	dones := make([]chan error, J)
	for j := range dones {
		_, dones[j] = startRemoteAgent(t, hub, cfg, j)
	}
	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg) // never trained: remote runs need no local agents
	if err != nil {
		t.Fatal(err)
	}
	log := logged(s)
	e := NewRemoteExecutor(hub, 10*time.Second)
	h := NewHistory(I, J, T)
	for p := 0; p < periods; p++ {
		if err := s.RunPeriodsInto(e, h, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for j, done := range dones {
		if err := <-done; err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	requireSameRun(t, "remote period-at-a-time", hRef, h)
	if !bytes.Equal(log.Bytes(), refLog.Bytes()) {
		t.Error("remote period-at-a-time history log differs from the whole serial run's")
	}
}

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
