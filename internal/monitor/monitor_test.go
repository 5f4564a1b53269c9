package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
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

// sameObservables requires two monitors to agree on everything a caller can
// see of the named metrics.
func sameObservables(t *testing.T, what string, a, b *Monitor, names []string, rng *rand.Rand) {
	t.Helper()
	if !reflect.DeepEqual(a.Metrics(), b.Metrics()) {
		t.Fatalf("%s: metrics %v vs %v", what, a.Metrics(), b.Metrics())
	}
	if x, y := a.TotalSamples(), b.TotalSamples(); x != y {
		t.Fatalf("%s: retained %d vs %d", what, x, y)
	}
	if x, y := a.EvictedSamples(), b.EvictedSamples(); x != y {
		t.Fatalf("%s: evicted %d vs %d", what, x, y)
	}
	for _, name := range names {
		if x, y := a.Query(name, -10, 1<<30), b.Query(name, -10, 1<<30); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: %s: Query %v vs %v", what, name, x, y)
		}
		from := rng.Intn(40)
		to := from + rng.Intn(20)
		if x, y := a.Query(name, from, to), b.Query(name, from, to); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: %s: Query[%d, %d] %v vs %v", what, name, from, to, x, y)
		}
		la, oka := a.Latest(name)
		lb, okb := b.Latest(name)
		if la != lb || oka != okb {
			t.Fatalf("%s: %s: Latest %v/%v vs %v/%v", what, name, la, oka, lb, okb)
		}
		ma, erra := a.MeanOver(name, from, to)
		mb, errb := b.MeanOver(name, from, to)
		if ma != mb || (erra == nil) != (errb == nil) {
			t.Fatalf("%s: %s: MeanOver %v (%v) vs %v (%v)", what, name, ma, erra, mb, errb)
		}
	}
}

// TestRowGroupMatchesRecord drives twin monitors through seeded random
// schedules — one records whole rows into groups, the other knows no groups
// and records every value by name — mixing in-order and out-of-order rows,
// by-name records into grouped names (before and after their group exists)
// and into ungrouped ones, malformed rows, and retention-window changes.
// Groups overlap each other and one names a metric twice; a third of the
// schedules leave the groups alone so they stay row-stored throughout, a
// third touch them rarely, a third constantly. After every operation the
// rejected counts and every observable must agree.
func TestRowGroupMatchesRecord(t *testing.T) {
	groups := [][]string{
		{"perf/ra0/slice0", "queue/ra0/slice0", "perf/ra0/slice1", "queue/ra0/slice1", "perf/ra1/slice0"},
		{"lone"},
		{"dup", "dup", "other"},
		{"other", "perf/ra1/slice0", "late"}, // overlaps the first and third groups
	}
	names := []string{"solo-a", "solo-b"}
	for _, g := range groups {
		names = append(names, g...)
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows, byName := New(), New()
		// How many groups take rows, and how often a by-name record lands on
		// a grouped name (out of 100).
		live, touch := len(groups), []int{0, 3, 60}[seed%3]
		if touch == 0 {
			live = 2 // the disjoint ones
		}
		ids := make([]int, len(groups))
		for g := range ids {
			ids[g] = -1
		}
		clock := make([]int, len(groups)+1) // one per group, the last for by-name records
		nextInterval := func(c int) int {
			clock[c] += rng.Intn(3)
			if rng.Intn(8) == 0 {
				return clock[c] - 1 - rng.Intn(5) // usually out of order: both forms must reject it
			}
			return clock[c]
		}
		for op := 0; op < 400; op++ {
			what := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(20); {
			case k < 11: // a row
				g := rng.Intn(live)
				if ids[g] < 0 {
					id, err := rows.Group(groups[g])
					if err != nil {
						t.Fatal(err)
					}
					ids[g] = id
				}
				interval := nextInterval(g)
				row := make([]float64, len(groups[g]))
				want := 0
				for c := range row {
					row[c] = rng.NormFloat64()
					if byName.Record(groups[g][c], interval, row[c]) != nil {
						want++
					}
				}
				if got := rows.RecordRow(ids[g], interval, row); got != want {
					t.Fatalf("%s: row into group %d at %d rejected %d samples, by name %d", what, g, interval, got, want)
				}
			case k < 16: // one value by name, grouped or not
				name, interval, v := names[rng.Intn(2)], nextInterval(len(groups)), rng.NormFloat64()
				if rng.Intn(100) < touch {
					name = names[2+rng.Intn(len(names)-2)]
				}
				errRows, errName := rows.Record(name, interval, v), byName.Record(name, interval, v)
				if (errRows == nil) != (errName == nil) || (errRows != nil && errRows.Error() != errName.Error()) {
					t.Fatalf("%s: Record(%s, %d): %v vs %v", what, name, interval, errRows, errName)
				}
			case k < 18: // a malformed row changes nothing
				g := rng.Intn(live)
				if ids[g] >= 0 {
					row := make([]float64, len(groups[g])+1+rng.Intn(2))
					if got := rows.RecordRow(ids[g], clock[g], row); got != len(row) {
						t.Fatalf("%s: over-wide row rejected %d of %d samples", what, got, len(row))
					}
					if got := rows.RecordRow(ids[g], clock[g], row[:len(groups[g])-1]); got != len(groups[g])-1 {
						t.Fatalf("%s: short row rejected %d samples", what, got)
					}
				}
			default:
				w := []int{0, 3, 8, 50}[rng.Intn(4)]
				rows.SetWindow(w)
				byName.SetWindow(w)
			}
			sameObservables(t, what, rows, byName, names, rng)
		}
		if rows.EvictedSamples() == 0 {
			t.Errorf("seed %d: schedule never evicted a sample", seed)
		}
	}
}

// TestRecordRowRejectsMalformedRows pins the row API's error contract: an
// unknown group or a row of the wrong width is rejected whole and counted,
// never a panic, and leaves the monitor untouched.
func TestRecordRowRejectsMalformedRows(t *testing.T) {
	m := New()
	if _, err := m.Group([]string{"a", ""}); err == nil {
		t.Error("a group with an empty metric name should fail")
	}
	g, err := m.Group([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Metrics(); len(got) != 0 {
		t.Errorf("a group without samples lists metrics %v", got)
	}
	for _, row := range [][]float64{nil, {1}, {1, 2}, {1, 2, 3, 4}} {
		if n := m.RecordRow(g, 0, row); n != len(row) {
			t.Errorf("row of width %d into a group of 3: %d rejected, want %d", len(row), n, len(row))
		}
	}
	for _, id := range []int{-1, g + 1, 1 << 40} {
		if n := m.RecordRow(id, 0, []float64{1, 2, 3}); n != 3 {
			t.Errorf("row into unknown group %d: %d rejected, want 3", id, n)
		}
	}
	if n := m.TotalSamples(); n != 0 {
		t.Fatalf("rejected rows left %d samples behind", n)
	}
	if n := m.RecordRow(g, 5, []float64{1, 2, 3}); n != 0 {
		t.Fatalf("well-formed row rejected %d samples", n)
	}
	if n := m.RecordRow(g, 4, []float64{1, 2, 3}); n != 3 {
		t.Errorf("out-of-order row rejected %d samples, want 3", n)
	}
	// The same checks once the group is kept column by column.
	if err := m.Record("b", 9, 7); err != nil {
		t.Fatal(err)
	}
	if n := m.RecordRow(g, 6, []float64{1, 2}); n != 2 {
		t.Errorf("short row into a split group rejected %d samples, want 2", n)
	}
	if n := m.RecordRow(g, 6, []float64{1, 2, 3}); n != 1 {
		t.Errorf("row behind one column's clock rejected %d samples, want 1", n)
	}
	if s, _ := m.Latest("b"); s != (Sample{9, 7}) {
		t.Errorf("Latest(b) = %+v", s)
	}
	if got := m.Query("c", 0, 100); !reflect.DeepEqual(got, []Sample{{5, 3}, {6, 3}}) {
		t.Errorf("Query(c) = %v", got)
	}
}

// TestBoundedRecordingAllocFree pins that recording under a retention window
// never allocates, whichever of SetWindow and the first samples came first: a
// series that exists when the window is set is sized to 2·window there.
func TestBoundedRecordingAllocFree(t *testing.T) {
	const window = 16
	names := []string{"a", "b", "c"}
	row := []float64{1, 2, 3}
	for _, windowFirst := range []bool{true, false} {
		m := New()
		if windowFirst {
			m.SetWindow(window)
		}
		g, err := m.Group(names)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		record := func() {
			if m.RecordRow(g, next, row) != 0 {
				t.Fatal("in-order row rejected")
			}
			if err := m.Record("solo", next, 1); err != nil {
				t.Fatal(err)
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
		if m.EvictedSamples() == 0 {
			t.Errorf("window first %v: nothing evicted after %d rows", windowFirst, next)
		}
	}
}

// TestUnboundedRecordingDoubles pins the growth of an unbounded block: it
// doubles, so n rows cost O(log n) allocations — two per doubling, intervals
// and values — where append's 1.25× growth of a wide block took several
// times as many.
func TestUnboundedRecordingDoubles(t *testing.T) {
	const rows = 10000
	m := New()
	g, err := m.Group([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 2, 3}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rows; i++ {
		if m.RecordRow(g, i, row) != 0 {
			t.Fatal("in-order row rejected")
		}
	}
	runtime.ReadMemStats(&m1)
	// 8 rows, then doubling past 10,000: 12 reserves.
	if n := m1.Mallocs - m0.Mallocs; n > 2*12 {
		t.Errorf("%d unbounded rows allocate %d times, want <= %d", rows, n, 2*12)
	}
	if got := len(m.Query("c", 0, rows)); got != rows {
		t.Errorf("recorded %d rows, want %d", got, rows)
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
