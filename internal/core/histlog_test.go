package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgeslice/internal/netsim"
	"edgeslice/internal/telemetry"
)

// TestHistoryLogRoundTrip writes a real run to disk alongside exact
// in-memory recording and checks the replay reconstructs the identical
// History.
func TestHistoryLogRoundTrip(t *testing.T) {
	cfg := execTestConfig(AlgoEqualShare)
	s := deployedSystem(t, cfg)
	path := filepath.Join(t.TempDir(), "run.histlog")
	log, err := CreateHistoryLog(path, cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRecording(RecordOptions{Log: log})

	h, err := s.RunPeriods(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	got, truncated, err := ReplayHistoryLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean log reported truncated")
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("replayed history differs from in-memory run:\ngot  %+v\nwant %+v", got, h)
	}
}

// TestHistoryLogAppendHistory checks chunk-at-a-time persistence — one log
// written across several Histories' records, as a period-at-a-time run
// writes it — against the stitched whole, and that the writer rejects
// records of another shape.
func TestHistoryLogAppendHistory(t *testing.T) {
	const I, J, T = 2, 2, 10
	rng := rand.New(rand.NewSource(17))
	whole := NewHistory(I, J, T)
	chunks := make([]*History, 4)
	for c := range chunks {
		chunks[c] = NewHistory(I, J, T)
		synthRecords(rng, T, chunks[c], whole)
	}

	path := filepath.Join(t.TempDir(), "chunks.histlog")
	log, err := CreateHistoryLog(path, I, J, T)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		logRecords(t, log, c)
	}
	wide := NewHistory(I+1, J, T)
	synthRecords(rng, T, wide)
	if err := log.LogInterval(0, []float64{1, 2, 3}, [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}, 0); err == nil {
		t.Error("an interval of another slice count should error")
	}
	if perf, sla, _, _ := wide.Period(0); log.LogPeriod(perf, sla, 0, 0) == nil {
		t.Error("a period of another slice count should error")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	got, truncated, err := ReplayHistoryLogFile(path)
	if err != nil || truncated {
		t.Fatalf("replay: %v (truncated %v)", err, truncated)
	}
	if !reflect.DeepEqual(got, whole) {
		t.Fatal("chunked log replay differs from the stitched history")
	}
}

// TestHistoryLogTruncatedTail cuts a log mid-record and checks the
// complete prefix is recovered with the truncation reported.
func TestHistoryLogTruncatedTail(t *testing.T) {
	const I, J, T = 2, 2, 10
	path := filepath.Join(t.TempDir(), "run.histlog")
	log, err := CreateHistoryLog(path, I, J, T)
	if err != nil {
		t.Fatal(err)
	}
	full := NewHistory(I, J, T)
	synthRecords(rand.New(rand.NewSource(29)), 2*T, full)
	logRecords(t, log, full)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last 5 bytes: mid-payload of the final (period) record.
	cut := filepath.Join(t.TempDir(), "cut.histlog")
	if err := os.WriteFile(cut, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := ReplayHistoryLogFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("cut log not reported truncated")
	}
	if got.Intervals() != 2*T || got.Periods() != 1 {
		t.Fatalf("recovered %d intervals / %d periods, want %d / 1", got.Intervals(), got.Periods(), 2*T)
	}
	// The recovered prefix matches the original record for record.
	if !reflect.DeepEqual(got.IntervalColumn(0), full.IntervalColumn(0)) {
		t.Error("recovered system performance differs")
	}
	gotPerf, gotSLA, _, _ := got.Period(0)
	wantPerf, wantSLA, _, _ := full.Period(0)
	if !reflect.DeepEqual(gotPerf, wantPerf) || !reflect.DeepEqual(gotSLA, wantSLA) {
		t.Error("recovered first period differs")
	}
}

func TestHistoryLogRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not a log at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayHistoryLogFile(garbage); err == nil {
		t.Error("garbage file should not replay")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayHistoryLogFile(empty); err == nil {
		t.Error("empty file should not replay")
	}
	if _, err := CreateHistoryLog(filepath.Join(dir, "bad"), 0, 2, 10); err == nil {
		t.Error("zero slices should be rejected")
	}
}

// TestHistoryLogRecordShapeChecks pins the one encoder's shape checks, on
// the log writer and on an exact and a streaming History alike: a
// misshapen record is an error and records nothing.
func TestHistoryLogRecordShapeChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shape.histlog")
	log, err := CreateHistoryLog(path, 2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	exact, stream := NewHistory(2, 2, 10), NewStreamingHistory(2, 2, 10, 4)
	for _, r := range []struct {
		name     string
		interval func(float64, []float64, [][]float64, float64) error
		period   func([][]float64, []bool, float64, float64) error
	}{
		{"log", log.LogInterval, log.LogPeriod},
		{"exact", exact.AddInterval, exact.AddPeriod},
		{"streaming", stream.AddInterval, stream.AddPeriod},
	} {
		if err := r.interval(0, []float64{1}, [][]float64{{0, 0, 0}, {0, 0, 0}}, 0); err == nil {
			t.Errorf("%s: short slicePerf should error", r.name)
		}
		if err := r.interval(0, []float64{1, 2}, [][]float64{{0, 0}, {0, 0}}, 0); err == nil {
			t.Errorf("%s: short usage row should error", r.name)
		}
		if err := r.period([][]float64{{1, 2}}, []bool{true, false}, 0, 0); err == nil {
			t.Errorf("%s: short perf grid should error", r.name)
		}
		if err := r.period([][]float64{{1}, {2}}, []bool{true, false}, 0, 0); err == nil {
			t.Errorf("%s: short perf row should error", r.name)
		}
	}
	for _, h := range []*History{exact, stream} {
		if h.Intervals() != 0 || h.Periods() != 0 {
			t.Errorf("streaming %v: misshapen records were recorded: %d intervals, %d periods",
				h.Streaming(), h.Intervals(), h.Periods())
		}
	}
}

// histHeader is a CRC-valid history log holding only a header record that
// declares the given shape.
func histHeader(t testing.TB, I, J, T, K uint32) []byte {
	t.Helper()
	hdr := append([]byte(nil), histLogMagic[:]...)
	for _, v := range []uint32{histLogVersion, I, J, T, K} {
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	var buf bytes.Buffer
	w := telemetry.NewLogWriter(&buf)
	if err := w.Append(hdr); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHistoryLogRejectsOversizeShape pins that a 32-byte log whose header
// declares 2³¹ slices is an error on every read path — it used to size a
// 48 GiB History and die out of memory — and that reader and writer agree on
// the largest shape whose records fit the record cap.
func TestHistoryLogRejectsOversizeShape(t *testing.T) {
	huge := histHeader(t, 1<<31, 1, 1, histLogNumResources)
	if len(huge) != 32 {
		t.Fatalf("crafted log is %d bytes, want 32", len(huge))
	}
	if _, _, err := ReplayHistoryLog(bytes.NewReader(huge)); err == nil {
		t.Error("ReplayHistoryLog accepted a 2^31-slice header")
	}
	path := filepath.Join(t.TempDir(), "huge.histlog")
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenHistoryLogAppend(path); err == nil {
		t.Error("OpenHistoryLogAppend accepted a 2^31-slice header")
	}
	// At I = J = K = 2³²−1 both record lengths wrap negative in int64
	// arithmetic, which would pass a plain "≤ cap" test.
	const m = math.MaxUint32
	if _, _, _, err := parseHistHeader(histHeader(t, m, m, 1, m)[telemetry.RecordHeaderBytes:]); err == nil {
		t.Error("a header whose record lengths overflow int64 parsed")
	}
	// The widest interval record that fits: 1 + 8·(2 + I + I·K) bytes.
	maxI := (telemetry.MaxRecordBytes - 17) / (8 * (1 + histLogNumResources))
	for _, tc := range []struct {
		I, J int
		fits bool
	}{
		{maxI, 1, true},
		{maxI + 1, 1, false},
		{1, (telemetry.MaxRecordBytes - 18) / 8, true}, // the widest period record
		{1, (telemetry.MaxRecordBytes-18)/8 + 1, false},
	} {
		_, werr := NewHistoryLog(telemetry.NewLogWriter(io.Discard), tc.I, tc.J, 10)
		_, _, _, rerr := parseHistHeader(histHeader(t, uint32(tc.I), uint32(tc.J), 10, histLogNumResources)[telemetry.RecordHeaderBytes:])
		if (werr == nil) != tc.fits || (rerr == nil) != tc.fits {
			t.Errorf("shape %dx%d: writer %v, reader %v, want fits=%v", tc.I, tc.J, werr, rerr, tc.fits)
		}
	}
}

// FuzzReplayHistoryLog feeds arbitrary bytes to the history log reader: it
// must return an error or a History, never panic, and never size anything
// off a header whose records could not fit the record cap. A History it
// returns must survive a write-and-replay round trip byte for byte. Seeds in
// testdata/fuzz/FuzzReplayHistoryLog: a valid two-period log, the same log
// with a truncated tail, and the 2³¹-slice header.
func FuzzReplayHistoryLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := ReplayHistoryLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encodeHistory(t, h)
		again, truncated, err := ReplayHistoryLog(bytes.NewReader(once))
		if err != nil || truncated {
			t.Fatalf("re-encoded history does not replay: truncated %v, %v", truncated, err)
		}
		if twice := encodeHistory(t, again); !bytes.Equal(once, twice) {
			t.Fatal("history log round trip changed the records")
		}
	})
}

// encodeHistory writes h as a history log: header, intervals, periods.
func encodeHistory(t *testing.T, h *History) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewLogWriter(&buf)
	l, err := NewHistoryLog(w, h.NumSlices, h.NumRAs, h.T)
	if err != nil {
		t.Fatalf("the writer rejects a shape the reader accepted: %v", err)
	}
	logRecords(t, l, h)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logRecords logs every interval, then every period, of an exact History
// through LogInterval and LogPeriod, reading them through its accessors.
func logRecords(t *testing.T, l *HistoryLog, h *History) {
	t.Helper()
	I, K := h.NumSlices, netsim.NumResources
	cols := make([][]float64, 2+I+I*K)
	for c := range cols {
		cols[c] = h.IntervalColumn(c)
	}
	slicePerf, usage := make([]float64, I), make([][]float64, I)
	for k := 0; k < h.Intervals(); k++ {
		for i := range usage {
			slicePerf[i] = cols[1+i][k]
			usage[i] = make([]float64, K)
			for r := range usage[i] {
				usage[i][r] = cols[1+I+i*K+r][k]
			}
		}
		if err := l.LogInterval(cols[0][k], slicePerf, usage, cols[len(cols)-1][k]); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < h.Periods(); p++ {
		if err := l.LogPeriod(h.Period(p)); err != nil {
			t.Fatal(err)
		}
	}
}
