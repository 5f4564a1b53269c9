package core

import (
	"runtime"
	"testing"
)

// TestStreamingLongRunBoundedMemory drives >=100k intervals in streaming
// mode and asserts the heap stays under a fixed bound: the point of the
// telemetry layer is that run length no longer shows up in memory. Exact
// mode would retain every interval (~tens of MB at this scale and growing
// linearly); streaming mode holds O(window) per metric.
func TestStreamingLongRunBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long run; skipped with -short")
	}
	cfg := DefaultConfig()
	cfg.Algo = AlgoEqualShare // no training, pure orchestration throughput
	cfg.TrainSteps = 0
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil { // no-op for EqualShare
		t.Fatal(err)
	}
	s.SetRecording(RecordOptions{StreamWindow: 256})

	const periods = 10_000 // x T=10 intervals = 100k intervals
	wantIntervals := periods * cfg.EnvTemplate.T

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	h, err := s.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}
	if h.Intervals() != wantIntervals || h.Periods() != periods {
		t.Fatalf("recorded %d intervals / %d periods, want %d / %d",
			h.Intervals(), h.Periods(), wantIntervals, periods)
	}
	if !h.Streaming() {
		t.Fatal("history not in streaming mode")
	}
	if _, err := h.MeanSystemPerf(wantIntervals / 2); err != nil {
		t.Fatal(err)
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)

	// The bound is generous against CI noise; exact mode would keep every
	// one of the 100k interval records: the run must not grow the heap with
	// run length.
	const heapBound = 16 << 20
	if after.HeapAlloc > heapBound {
		t.Errorf("HeapAlloc after 100k streaming intervals = %d bytes (%.1f MB), bound %d",
			after.HeapAlloc, float64(after.HeapAlloc)/(1<<20), heapBound)
	}
	t.Logf("heap before %.1f MB, after %.1f MB",
		float64(before.HeapAlloc)/(1<<20), float64(after.HeapAlloc)/(1<<20))
}
