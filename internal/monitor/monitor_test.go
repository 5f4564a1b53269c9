package monitor

import (
	"reflect"
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

func TestLatest(t *testing.T) {
	m := New()
	if _, ok := m.Latest("nope"); ok {
		t.Error("Latest on missing metric should be false")
	}
	_ = m.Record("q", 1, 10)
	_ = m.Record("q", 2, 20)
	s, ok := m.Latest("q")
	if !ok || s.Value != 20 || s.Interval != 2 {
		t.Errorf("Latest = %+v ok=%v", s, ok)
	}
}

func TestAssociations(t *testing.T) {
	m := New()
	if err := m.AssociateIMSI("", 0); err == nil {
		t.Error("empty IMSI should fail")
	}
	if err := m.AssociateIP("", 0); err == nil {
		t.Error("empty IP should fail")
	}
	if err := m.AssociateIMSI("310150000000001", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AssociateIP("10.0.0.1", 1); err != nil {
		t.Fatal(err)
	}
	if s, ok := m.SliceOfIMSI("310150000000001"); !ok || s != 1 {
		t.Errorf("SliceOfIMSI = %d, %v", s, ok)
	}
	if s, ok := m.SliceOfIP("10.0.0.1"); !ok || s != 1 {
		t.Errorf("SliceOfIP = %d, %v", s, ok)
	}
	if _, ok := m.SliceOfIMSI("nope"); ok {
		t.Error("unknown IMSI should be false")
	}
}

func TestMetricsSorted(t *testing.T) {
	m := New()
	_ = m.Record("b", 0, 1)
	_ = m.Record("a", 0, 1)
	got := m.Metrics()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Metrics = %v", got)
	}
}

func TestMeanOver(t *testing.T) {
	m := New()
	_ = m.Record("q", 0, 10)
	_ = m.Record("q", 1, 20)
	_ = m.Record("q", 2, 60)
	mean, err := m.MeanOver("q", 0, 1)
	if err != nil || mean != 15 {
		t.Errorf("MeanOver = %v (%v)", mean, err)
	}
	if _, err := m.MeanOver("q", 50, 60); err == nil {
		t.Error("empty window should fail")
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
				m.Latest(metric)
			}
		}(g)
	}
	wg.Wait()
	if len(m.Metrics()) != 8 {
		t.Errorf("expected 8 metrics, got %d", len(m.Metrics()))
	}
}

func TestReduceOverMatchesQuery(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		_ = m.Record("q", i, float64(i)*1.5)
	}
	var got []Sample
	n := m.ReduceOver("q", 10, 42, func(s Sample) { got = append(got, s) })
	want := m.Query("q", 10, 42)
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("ReduceOver visited %d samples, Query returned %d", n, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: reduce %+v, query %+v", i, got[i], want[i])
		}
	}
	if n := m.ReduceOver("q", 500, 600, func(Sample) {}); n != 0 {
		t.Errorf("empty window visited %d samples", n)
	}
	if n := m.ReduceOver("missing", 0, 10, func(Sample) {}); n != 0 {
		t.Errorf("missing metric visited %d samples", n)
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
		if s[i].Interval != s[i-1].Interval+1 {
			t.Fatalf("retained run not contiguous at %d: %v -> %v", i, s[i-1], s[i])
		}
	}
	if ev := m.EvictedSamples(); ev != uint64(100-len(s)) {
		t.Errorf("evicted = %d, want %d", ev, 100-len(s))
	}
	// Ordering invariant survives eviction, so MeanOver still binary-searches.
	mean, err := m.MeanOver("q", 95, 99)
	if err != nil || mean != 97 {
		t.Errorf("MeanOver tail = %v (%v), want 97", mean, err)
	}
	// Shrinking the window trims existing series immediately.
	m.SetWindow(3)
	if got := len(m.Query("q", 0, 99)); got != 3 {
		t.Errorf("after SetWindow(3): %d samples retained", got)
	}
	if m.Window() != 3 {
		t.Errorf("Window() = %d", m.Window())
	}
	if m.TotalSamples() != 3 {
		t.Errorf("TotalSamples = %d", m.TotalSamples())
	}
}

// TestRecordIDMatchesRecord feeds three monitors the same samples — one by
// name, one through pre-resolved handles, one through handles a whole
// interval at a time — under a retention window, with out-of-order samples
// mixed in, and requires every query, the eviction count and the rejections
// to agree; warm handle recording must not allocate.
func TestRecordIDMatchesRecord(t *testing.T) {
	names := []string{MetricName("perf", 0, 0), MetricName("queue", 0, 0), MetricName("perf", 3, 1)}
	byName, byID, batched := New(), New(), New()
	byName.SetWindow(8)
	byID.SetWindow(8)
	batched.SetWindow(8)
	ids := make([]int, len(names))
	for k, name := range names {
		id, err := byID.Handle(name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := byID.Handle(name); again != id {
			t.Fatalf("Handle(%q) = %d then %d", name, id, again)
		}
		if bid, _ := batched.Handle(name); bid != id {
			t.Fatalf("twin monitors hand out different ids for %q: %d vs %d", name, bid, id)
		}
		ids[k] = id
	}
	if got := byID.Metrics(); len(got) != 0 {
		t.Errorf("handles without samples listed as metrics: %v", got)
	}
	if _, err := byID.Handle(""); err == nil {
		t.Error("empty metric name should fail")
	}
	if err := byID.RecordID(len(names), 0, 1); err == nil {
		t.Error("unknown series id should fail")
	}
	rejected, batchRejected := 0, 0
	values := make([]float64, len(names))
	for i := 0; i < 200; i++ {
		k := i % len(names)
		interval, v := i/len(names), float64(i)*0.5
		if i%17 == 16 {
			interval -= 5 // out of order: every form must reject it
		}
		errName := byName.Record(names[k], interval, v)
		errID := byID.RecordID(ids[k], interval, v)
		if (errName == nil) != (errID == nil) || (errName != nil && errName.Error() != errID.Error()) {
			t.Fatalf("sample %d: Record err %v, RecordID err %v", i, errName, errID)
		}
		if errID != nil {
			rejected++
		}
		values[0] = v
		batchRejected += batched.RecordIDs(ids[k:k+1], interval, values[:1])
	}
	if rejected == 0 || batchRejected != rejected {
		t.Fatalf("rejected %d out-of-order samples one at a time, %d batched; want equal and > 0", rejected, batchRejected)
	}
	if n := batched.RecordIDs([]int{len(names)}, 0, values[:1]); n != 1 {
		t.Errorf("RecordIDs with an unknown id rejected %d samples, want 1", n)
	}
	if !reflect.DeepEqual(byName.Metrics(), byID.Metrics()) {
		t.Errorf("metrics %v vs %v", byName.Metrics(), byID.Metrics())
	}
	for _, name := range names {
		if a, b := byName.Query(name, 0, 1000), byID.Query(name, 0, 1000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Query %v vs %v", name, a, b)
		}
		if a, b := byName.Query(name, 0, 1000), batched.Query(name, 0, 1000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Query %v vs batched %v", name, a, b)
		}
		la, oka := byName.Latest(name)
		lb, okb := byID.Latest(name)
		if la != lb || oka != okb {
			t.Errorf("%s: Latest %v/%v vs %v/%v", name, la, oka, lb, okb)
		}
		ma, erra := byName.MeanOver(name, 50, 70)
		mb, errb := byID.MeanOver(name, 50, 70)
		if ma != mb || (erra == nil) != (errb == nil) {
			t.Errorf("%s: MeanOver %v (%v) vs %v (%v)", name, ma, erra, mb, errb)
		}
	}
	if a, b, c := byName.EvictedSamples(), byID.EvictedSamples(), batched.EvictedSamples(); a != b || a != c || a == 0 {
		t.Errorf("evicted %d vs %d vs %d (want equal and > 0)", a, b, c)
	}
	if a, b := byName.TotalSamples(), byID.TotalSamples(); a != b {
		t.Errorf("retained %d vs %d", a, b)
	}
	next := 1000
	if n := testing.AllocsPerRun(500, func() {
		for _, id := range ids {
			if err := byID.RecordID(id, next, 1); err != nil {
				t.Fatal(err)
			}
		}
		if batched.RecordIDs(ids, next, values) != 0 {
			t.Fatal("in-order batch rejected")
		}
		next++
	}); n != 0 {
		t.Errorf("warm RecordID/RecordIDs under a window allocate %v times per interval, want 0", n)
	}
}

// BenchmarkMeanOver compares the allocation-free reduce against the
// historical Query-then-sum implementation.
func BenchmarkMeanOver(b *testing.B) {
	m := New()
	for i := 0; i < 10000; i++ {
		_ = m.Record("q", i, float64(i))
	}
	b.Run("reduce", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := m.MeanOver("q", 1000, 9000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-copy", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			samples := m.Query("q", 1000, 9000)
			if len(samples) == 0 {
				b.Fatal("no samples")
			}
			var sum float64
			for _, s := range samples {
				sum += s.Value
			}
			_ = sum / float64(len(samples))
		}
	})
}

// BenchmarkMeanOverSmallWindow is the typical SLA-check shape: a short
// trailing window, where the copy's allocation dominates.
func BenchmarkMeanOverSmallWindow(b *testing.B) {
	m := New()
	for i := 0; i < 10000; i++ {
		_ = m.Record("q", i, float64(i))
	}
	b.Run("reduce", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := m.MeanOver("q", 9900, 9999); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-copy", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			samples := m.Query("q", 9900, 9999)
			var sum float64
			for _, s := range samples {
				sum += s.Value
			}
			_ = sum / float64(len(samples))
		}
	})
}
