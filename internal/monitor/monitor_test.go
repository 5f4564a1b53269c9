package monitor

import (
	"runtime"
	"sync"
	"testing"
)

func TestRecordQuery(t *testing.T) {
	m := New()
	metric := MetricName("perf", 0, 1)
	if metric != "perf/ra0/slice1" {
		t.Errorf("MetricName = %q", metric)
	}
	for i := 0; i < 10; i++ {
		if err := m.Record(metric, i, float64(-i)); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Query(metric, 3, 6)
	if len(got) != 4 {
		t.Fatalf("Query returned %d samples, want 4", len(got))
	}
	if got[0].Interval != 3 || got[3].Interval != 6 {
		t.Errorf("Query window wrong: %v", got)
	}
	if s := m.Query(metric, 100, 200); s != nil {
		t.Errorf("out-of-window query should be nil, got %v", s)
	}
}

func TestRecordValidation(t *testing.T) {
	m := New()
	if err := m.Record("", 0, 1); err == nil {
		t.Error("empty metric should fail")
	}
	if err := m.Record("x", 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Record("x", 3, 1); err == nil {
		t.Error("out-of-order sample should fail")
	}
	if err := m.Record("x", 5, 2); err != nil {
		t.Errorf("equal interval should be allowed: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			metric := MetricName("perf", g, 0)
			for i := 0; i < 200; i++ {
				if err := m.Record(metric, i, float64(i)); err != nil {
					t.Errorf("record: %v", err)
					return
				}
				m.Query(metric, 0, i)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if n := len(m.Query(MetricName("perf", g, 0), 0, 200)); n != 200 {
			t.Errorf("metric %d holds %d samples, want 200", g, n)
		}
	}
}

func TestWindowedRetention(t *testing.T) {
	m := New()
	m.SetWindow(10)
	for i := 0; i < 100; i++ {
		if err := m.Record("q", i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Retention is amortized: between w and 2w samples retained, and the
	// retained suffix is always the newest contiguous run.
	s := m.Query("q", 0, 99)
	if len(s) < 10 || len(s) > 20 {
		t.Fatalf("retained %d samples, want in [10, 20]", len(s))
	}
	if s[len(s)-1].Interval != 99 {
		t.Fatalf("newest sample is %d, want 99", s[len(s)-1].Interval)
	}
	for i := 1; i < len(s); i++ {
		if s[i].Interval != s[i-1].Interval+1 || s[i].Value != float64(s[i].Interval) {
			t.Fatalf("retained run not contiguous at %d: %v -> %v", i, s[i-1], s[i])
		}
	}
	// Ordering survives eviction, so a query still binary-searches.
	if got := m.Query("q", 95, 99); len(got) != 5 || got[0] != (Sample{95, 95}) {
		t.Errorf("Query tail = %v, want intervals 95..99", got)
	}
	// Shrinking the window trims existing series immediately.
	m.SetWindow(3)
	if got := m.Query("q", 0, 99); len(got) != 3 || got[0].Interval != 97 {
		t.Errorf("after SetWindow(3): retained %v, want intervals 97..99", got)
	}
}

// TestBoundedRecordingAllocFree pins that recording under a retention window
// never allocates, whichever of SetWindow and the first samples came first: a
// series that exists when the window is set is sized to 2·window there.
func TestBoundedRecordingAllocFree(t *testing.T) {
	const window = 16
	names := []string{"a", "b", "c"}
	for _, windowFirst := range []bool{true, false} {
		m := New()
		if windowFirst {
			m.SetWindow(window)
		}
		next := 0
		record := func() {
			for k, name := range names {
				if err := m.Record(name, next, float64(k)); err != nil {
					t.Fatal(err)
				}
			}
			next++
		}
		record()
		if !windowFirst {
			m.SetWindow(window)
		}
		// Single-run measurements across more than a full 2·window cycle: an
		// average over many runs would round a handful of growth steps to 0.
		for i := 0; i < 3*window; i++ {
			if n := testing.AllocsPerRun(1, record); n != 0 {
				t.Fatalf("window first %v: recording allocates %v times at interval %d, want 0", windowFirst, n, next)
			}
		}
		if n := len(m.Query("c", 0, next)); n > 2*window {
			t.Errorf("window first %v: %d samples retained after %d, want <= %d", windowFirst, n, next, 2*window)
		}
	}
}

// TestUnboundedRecordingDoubles pins the growth of an unbounded series: it
// doubles, so n samples cost O(log n) allocations, one per doubling.
func TestUnboundedRecordingDoubles(t *testing.T) {
	const samples = 10000
	m := New()
	if err := m.Record("q", 0, 0); err != nil { // creates the series: 8 samples
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i < samples; i++ {
		if err := m.Record("q", i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	// Doubling from 8 past 10,000: 11 reserves.
	if n := m1.Mallocs - m0.Mallocs; n > 11 {
		t.Errorf("%d unbounded samples allocate %d times, want <= 11", samples, n)
	}
	if got := len(m.Query("q", 0, samples)); got != samples {
		t.Errorf("recorded %d samples, want %d", got, samples)
	}
}
