package telemetry

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestQuantileSmallStreamExact(t *testing.T) {
	q, err := NewQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(q.Value()) {
		t.Fatalf("empty estimator = %v, want NaN", q.Value())
	}
	for _, v := range []float64{3, 1, 2} {
		q.Observe(v)
	}
	if got := q.Value(); got != 2 {
		t.Fatalf("median of {1,2,3} = %v, want 2", got)
	}
}

func TestQuantileRejectsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NewQuantile(p); err == nil {
			t.Errorf("NewQuantile(%v) accepted", p)
		}
	}
}

// TestQuantileAccuracy checks the P² estimate against the exact quantile
// on uniform and heavy-tailed streams.
func TestQuantileAccuracy(t *testing.T) {
	const n = 50000
	rng := rand.New(rand.NewSource(7))
	streams := map[string]func() float64{
		"uniform": func() float64 { return rng.Float64() * 100 },
		"exp":     func() float64 { return rng.ExpFloat64() * 10 },
		"normal":  func() float64 { return rng.NormFloat64()*5 + 50 },
	}
	for name, gen := range streams {
		for _, p := range []float64{0.05, 0.5, 0.95} {
			q, err := NewQuantile(p)
			if err != nil {
				t.Fatal(err)
			}
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = gen()
				q.Observe(samples[i])
			}
			sort.Float64s(samples)
			exact := ExactQuantile(samples, p)
			got := q.Value()
			// Tolerance: 2% of the sample spread.
			spread := samples[n-1] - samples[0]
			if math.Abs(got-exact) > 0.02*spread {
				t.Errorf("%s p%g: estimate %v, exact %v (spread %v)", name, p*100, got, exact, spread)
			}
		}
	}
}

func TestSeriesSummaryAndTail(t *testing.T) {
	s := NewSeries(4)
	vals := []float64{5, 1, 7, 3, 9, 2}
	var sum float64
	for _, v := range vals {
		s.Observe(v)
		sum += v
	}
	if s.Sum() != sum {
		t.Fatalf("sum = %v, want %v", s.Sum(), sum)
	}
	if got := s.retainedLocked(); got != 4 {
		t.Fatalf("retained = %d, want 4", got)
	}
	// Tail of 3 = last three samples {3, 9, 2} summed oldest-first.
	wantTail := 3.0 + 9 + 2
	if got, n := s.TailSum(3); got != wantTail || n != 3 {
		t.Fatalf("TailSum(3) = %v/%d, want %v/3", got, n, wantTail)
	}
	// Asking beyond the window clamps to the retained 4 samples.
	if _, n := s.TailSum(100); n != 4 {
		t.Fatalf("TailSum(100) used %d samples, want 4", n)
	}
	if mean, n := s.TailMean(2); mean != (9.0+2)/2 || n != 2 {
		t.Fatalf("TailMean(2) = %v/%d", mean, n)
	}
}

// TestSeriesTailSumBitIdentical pins the property core's streaming History
// relies on: tail sums accumulate in the same order as a slice-suffix loop.
func TestSeriesTailSumBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSeries(128)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e3
		s.Observe(vals[i])
	}
	for _, n := range []int{1, 7, 64, 128} {
		var want float64
		for _, v := range vals[len(vals)-n:] {
			want += v
		}
		if got, m := s.TailSum(n); got != want || m != n {
			t.Fatalf("TailSum(%d) = %v (%d samples), want exactly %v", n, got, m, want)
		}
	}
	// Full-stream sum matches a left-to-right loop bitwise.
	var want float64
	for _, v := range vals {
		want += v
	}
	if s.Sum() != want {
		t.Fatalf("Sum() = %v, want %v", s.Sum(), want)
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("es_test_total", "a test counter", func() uint64 { return 42 })
	r.GaugeFunc("es_gauge", "a test gauge", func() float64 { return 2.5 })
	r.GaugeFunc(`es_labeled{slice="0"}`, "labeled", func() float64 { return 1 })
	r.GaugeFunc(`es_labeled{slice="1"}`, "labeled", func() float64 { return 0 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE es_test_total counter",
		"es_test_total 42",
		"# TYPE es_gauge gauge",
		"es_gauge 2.5",
		`es_labeled{slice="0"} 1`,
		`es_labeled{slice="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The labeled family's TYPE header appears exactly once.
	if n := strings.Count(out, "# TYPE es_labeled gauge"); n != 1 {
		t.Errorf("labeled TYPE header appears %d times, want 1", n)
	}

	snap := r.Snapshot()
	if snap["es_test_total"] != 42 || snap["es_gauge"] != 2.5 || snap[`es_labeled{slice="0"}`] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	// Re-registering a name of the same kind replaces its func.
	r.CounterFunc("es_test_total", "again", func() uint64 { return 7 })
	if got := r.Snapshot()["es_test_total"]; got != 7 {
		t.Errorf("re-registered counter reads %v, want 7", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind conflict")
		}
	}()
	r.GaugeFunc("dup", "", func() float64 { return 0 })
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(&buf)
	recs := [][]byte{[]byte("hello"), {}, []byte(strings.Repeat("x", 100000))}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewLogReader(bytes.NewReader(buf.Bytes()))
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of log: %v, want io.EOF", err)
	}
}

func TestLogTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut the log at every byte boundary inside the last record: the two
	// complete records must always be recovered, never an error beyond
	// ErrTruncated.
	recLen := recordHeaderBytes + 4
	for cut := 2 * recLen; cut < len(full); cut++ {
		r := NewLogReader(bytes.NewReader(full[:cut]))
		var n int
		for {
			_, err := r.Next()
			if err == io.EOF || err == ErrTruncated {
				break
			}
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			n++
		}
		if n != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, n)
		}
	}

	// Corrupt a payload byte of the last record: CRC catches it.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xff
	r := NewLogReader(bytes.NewReader(corrupt))
	var n int
	for {
		_, err := r.Next()
		if err != nil {
			if err != ErrTruncated {
				t.Fatalf("corrupt tail: %v, want ErrTruncated", err)
			}
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("corrupt tail: recovered %d records, want 2", n)
	}
}

func TestCreateLogFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewLogReader(bytes.NewReader(data))
	rec, err := r.Next()
	if err != nil || string(rec) != "rec" {
		t.Fatalf("got %q, %v", rec, err)
	}
}

func TestServerSurfaces(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("up_total", "test", func() uint64 { return 1 })
	srv, err := StartServer("127.0.0.1:0", reg, func() any {
		return map[string]int{"periods": 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"periods": 3`) {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: %d", code)
	}
}
