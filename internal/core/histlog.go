package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"edgeslice/internal/netsim"
	"edgeslice/internal/telemetry"
)

// HistoryLog is the append-only on-disk record of one orchestration run:
// every interval and period record the executors commit, written through
// the telemetry record log (length-prefixed, CRC-checked — the WAL idiom),
// replayable into a full exact History. Pairing it with streaming-mode
// recording makes long runs lossless: live queries come from O(window)
// summaries while the log preserves full fidelity on disk.
//
// Format (log payloads, all integers/floats little-endian):
//
//	header   "ESHL" | version u32 | numSlices u32 | numRAs u32 | T u32 | numResources u32
//	interval 0x01 | sysPerf f64 | slicePerf[I] f64 | usage[I][K] f64 | violation f64
//	period   0x02 | perf[I][J] f64 | sla[I] u8 | primal f64 | dual f64
//
// A HistoryLog is not safe for concurrent use; the executors write from
// the single run-driving goroutine.
type HistoryLog struct {
	w                          *telemetry.LogWriter
	numSlices, numRAs, periodT int
	buf                        []byte
}

// histLogVersion is the on-disk format version.
const histLogVersion = 1

var histLogMagic = [4]byte{'E', 'S', 'H', 'L'}

const (
	histRecInterval byte = 1
	histRecPeriod   byte = 2
)

// histLogNumResources is the per-slice resource-domain count of every
// usage row the executors record.
const histLogNumResources = netsim.NumResources

// CreateHistoryLog creates (truncating) a history log file for a run of
// the given shape and writes the header record.
func CreateHistoryLog(path string, numSlices, numRAs, t int) (*HistoryLog, error) {
	w, err := telemetry.CreateLog(path)
	if err != nil {
		return nil, err
	}
	l, err := NewHistoryLog(w, numSlices, numRAs, t)
	if err != nil {
		_ = w.Close()
		_ = os.Remove(path)
		return nil, err
	}
	return l, nil
}

// NewHistoryLog wraps a telemetry log writer and writes the header record.
func NewHistoryLog(w *telemetry.LogWriter, numSlices, numRAs, t int) (*HistoryLog, error) {
	if numSlices <= 0 || numRAs <= 0 || t <= 0 {
		return nil, fmt.Errorf("core: invalid history log shape %dx%dxT%d", numSlices, numRAs, t)
	}
	if !histRecordsFit(numSlices, numRAs, histLogNumResources) {
		return nil, fmt.Errorf("core: history log shape %dx%dxT%d has records over the %d-byte cap",
			numSlices, numRAs, t, telemetry.MaxRecordBytes)
	}
	l := &HistoryLog{w: w, numSlices: numSlices, numRAs: numRAs, periodT: t}
	hdr := make([]byte, 0, 4+5*4)
	hdr = append(hdr, histLogMagic[:]...)
	hdr = appendU32(hdr, histLogVersion)
	hdr = appendU32(hdr, uint32(numSlices))
	hdr = appendU32(hdr, uint32(numRAs))
	hdr = appendU32(hdr, uint32(t))
	hdr = appendU32(hdr, uint32(histLogNumResources))
	if err := w.Append(hdr); err != nil {
		return nil, err
	}
	return l, nil
}

// Shape returns the run shape the log was created for.
func (l *HistoryLog) Shape() (numSlices, numRAs, t int) {
	return l.numSlices, l.numRAs, l.periodT
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// LogInterval appends one interval record (usage is [slice][resource]).
func (l *HistoryLog) LogInterval(sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) error {
	I := l.numSlices
	if len(slicePerf) != I || len(usage) != I {
		return fmt.Errorf("core: history log interval has %d/%d slices, want %d", len(slicePerf), len(usage), I)
	}
	b := l.buf[:0]
	b = append(b, histRecInterval)
	b = appendF64(b, sysPerf)
	for _, v := range slicePerf {
		b = appendF64(b, v)
	}
	for i, row := range usage {
		if len(row) != histLogNumResources {
			return fmt.Errorf("core: history log usage row %d has %d resources, want %d", i, len(row), histLogNumResources)
		}
		for _, v := range row {
			b = appendF64(b, v)
		}
	}
	b = appendF64(b, violation)
	l.buf = b
	return l.w.Append(b)
}

// LogPeriod appends one period record (perf is [slice][ra]).
func (l *HistoryLog) LogPeriod(perf [][]float64, sla []bool, primal, dual float64) error {
	I, J := l.numSlices, l.numRAs
	if len(perf) != I || len(sla) != I {
		return fmt.Errorf("core: history log period has %d/%d slices, want %d", len(perf), len(sla), I)
	}
	b := l.buf[:0]
	b = append(b, histRecPeriod)
	for i, row := range perf {
		if len(row) != J {
			return fmt.Errorf("core: history log period row %d has %d RAs, want %d", i, len(row), J)
		}
		for _, v := range row {
			b = appendF64(b, v)
		}
	}
	for _, ok := range sla {
		if ok {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = appendF64(b, primal)
	b = appendF64(b, dual)
	l.buf = b
	return l.w.Append(b)
}

// AppendHistory logs every interval and period record of an exact-mode
// history of the same shape, intervals first — the order a run commits them
// in when it is one period long.
func (l *HistoryLog) AppendHistory(h *History) error {
	if h.Streaming() {
		return fmt.Errorf("core: cannot log a streaming history: its raw records are summarized away")
	}
	if h.NumSlices != l.numSlices || h.NumRAs != l.numRAs || h.T != l.periodT {
		return fmt.Errorf("core: history log shape %dx%dxT%d, history is %dx%dxT%d",
			l.numSlices, l.numRAs, l.periodT, h.NumSlices, h.NumRAs, h.T)
	}
	slicePerf := make([]float64, h.NumSlices)
	for t := range h.SystemPerf {
		for i := 0; i < h.NumSlices; i++ {
			slicePerf[i] = h.SlicePerf[i][t]
		}
		if err := l.LogInterval(h.SystemPerf[t], slicePerf, h.Usage[t], h.Violations[t]); err != nil {
			return err
		}
	}
	for p := range h.PeriodPerf {
		if err := l.LogPeriod(h.PeriodPerf[p], h.SLAMet[p], h.Primal[p], h.Dual[p]); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes buffered records and fsyncs when file-backed.
func (l *HistoryLog) Sync() error { return l.w.Sync() }

// Close flushes, syncs, and closes the log.
func (l *HistoryLog) Close() error { return l.w.Close() }

// histIntervalLen and histPeriodLen are the byte lengths of an interval and
// a period record of an I-slice, J-RA, K-resource log.
func histIntervalLen(I, K int) int { return 1 + 8*(2+I+I*K) }
func histPeriodLen(I, J int) int   { return 1 + 8*I*J + I + 16 }

// histRecordsFit reports whether both record kinds of the shape fit under
// the telemetry log's record cap: a log of any larger shape can hold no
// record, and its reader must not size a History for it. The divisions
// bound I·K and I·J before any product is formed, so nothing overflows.
func histRecordsFit(I, J, K int) bool {
	const words = telemetry.MaxRecordBytes / 8
	if I > words || K > words/I || J > words/I {
		return false
	}
	return histIntervalLen(I, K) <= telemetry.MaxRecordBytes && histPeriodLen(I, J) <= telemetry.MaxRecordBytes
}

// parseHistHeader validates a history log's header record and returns the
// run shape it declares.
func parseHistHeader(hdr []byte) (I, J, T, K int, err error) {
	if len(hdr) != 4+5*4 || string(hdr[:4]) != string(histLogMagic[:]) {
		return 0, 0, 0, 0, fmt.Errorf("core: not a history log (bad header)")
	}
	version := binary.LittleEndian.Uint32(hdr[4:8])
	if version != histLogVersion {
		return 0, 0, 0, 0, fmt.Errorf("core: history log version %d, this build reads %d", version, histLogVersion)
	}
	I = int(binary.LittleEndian.Uint32(hdr[8:12]))
	J = int(binary.LittleEndian.Uint32(hdr[12:16]))
	T = int(binary.LittleEndian.Uint32(hdr[16:20]))
	K = int(binary.LittleEndian.Uint32(hdr[20:24]))
	if I <= 0 || J <= 0 || T <= 0 || K <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("core: history log header has invalid shape %dx%dxT%d K%d", I, J, T, K)
	}
	if !histRecordsFit(I, J, K) {
		return 0, 0, 0, 0, fmt.Errorf("core: history log header shape %dx%dxT%d K%d has records over the %d-byte cap",
			I, J, T, K, telemetry.MaxRecordBytes)
	}
	return I, J, T, K, nil
}

// applyHistRecord decodes one interval or period record into h.
func applyHistRecord(h *History, rec []byte, I, J, K int) error {
	if len(rec) == 0 {
		return fmt.Errorf("core: empty record in history log")
	}
	switch rec[0] {
	case histRecInterval:
		if intervalLen := histIntervalLen(I, K); len(rec) != intervalLen {
			return fmt.Errorf("core: interval record of %d bytes, want %d", len(rec), intervalLen)
		}
		b := rec[1:]
		sysPerf := readF64(&b)
		slicePerf := make([]float64, I)
		for i := range slicePerf {
			slicePerf[i] = readF64(&b)
		}
		usage := make([][]float64, I)
		for i := range usage {
			usage[i] = make([]float64, K)
			for k := range usage[i] {
				usage[i][k] = readF64(&b)
			}
		}
		violation := readF64(&b)
		h.AddInterval(sysPerf, slicePerf, usage, violation)
	case histRecPeriod:
		if periodLen := histPeriodLen(I, J); len(rec) != periodLen {
			return fmt.Errorf("core: period record of %d bytes, want %d", len(rec), periodLen)
		}
		b := rec[1:]
		perf := make([][]float64, I)
		for i := range perf {
			perf[i] = make([]float64, J)
			for j := range perf[i] {
				perf[i][j] = readF64(&b)
			}
		}
		sla := make([]bool, I)
		for i := range sla {
			sla[i] = b[0] != 0
			b = b[1:]
		}
		primal := readF64(&b)
		dual := readF64(&b)
		h.AddPeriod(perf, sla, primal, dual)
	default:
		return fmt.Errorf("core: unknown history log record kind %d", rec[0])
	}
	return nil
}

// ReplayHistoryLog reads a history log and reconstructs the exact History
// it records. truncated reports that the log ended mid-record (a crashed
// writer) — every complete record before the partial tail is recovered.
func ReplayHistoryLog(r io.Reader) (h *History, truncated bool, err error) {
	lr := telemetry.NewLogReader(r)
	hdr, err := lr.Next()
	if err != nil {
		if err == telemetry.ErrTruncated {
			return nil, true, fmt.Errorf("core: history log header truncated")
		}
		return nil, false, fmt.Errorf("core: empty history log: %w", err)
	}
	I, J, T, K, err := parseHistHeader(hdr)
	if err != nil {
		return nil, false, err
	}
	h = NewHistory(I, J, T)
	for {
		rec, err := lr.Next()
		if err == io.EOF {
			return h, false, nil
		}
		if err == telemetry.ErrTruncated {
			return h, true, nil
		}
		if err != nil {
			return h, false, err
		}
		if err := applyHistRecord(h, rec, I, J, K); err != nil {
			return h, false, err
		}
	}
}

// OpenHistoryLogAppend reopens an existing history log for a resumed run:
// it replays the longest prefix that ends on a whole completed period
// (interval count = periods × T), cuts off everything after it — a crashed
// coordinator leaves the in-flight period's intervals and possibly a
// partial record at the tail — and returns a HistoryLog that appends in
// place from the cut, plus the exact History of the kept prefix (feed it
// to System.PrimeFromHistory). No new header is written; the continued log
// replays as one seamless run.
func OpenHistoryLogAppend(path string) (*HistoryLog, *History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	lr := telemetry.NewLogReader(f)
	offset := int64(0)
	hdr, err := lr.Next()
	if err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("core: resume history log: unreadable header: %w", err)
	}
	offset += telemetry.RecordHeaderBytes + int64(len(hdr))
	I, J, T, K, err := parseHistHeader(hdr)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if K != histLogNumResources {
		_ = f.Close()
		return nil, nil, fmt.Errorf("core: history log records %d resource domains, this build appends %d", K, histLogNumResources)
	}
	h := NewHistory(I, J, T)
	// Track the last offset at which the log was a whole number of
	// completed periods; that is where appending resumes.
	cutOffset := offset
	cutIntervals, cutPeriods := 0, 0
	for {
		rec, err := lr.Next()
		if err == io.EOF || err == telemetry.ErrTruncated {
			break
		}
		if err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("core: resume history log: %w", err)
		}
		if err := applyHistRecord(h, rec, I, J, K); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("core: resume history log: %w", err)
		}
		offset += telemetry.RecordHeaderBytes + int64(len(rec))
		if h.Periods()*T == h.Intervals() && h.Periods() > cutPeriods {
			cutOffset = offset
			cutIntervals, cutPeriods = h.Intervals(), h.Periods()
		}
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("core: resume history log: %w", err)
	}
	h.truncateTo(cutIntervals, cutPeriods)
	w, err := telemetry.ResumeLog(path, cutOffset)
	if err != nil {
		return nil, nil, err
	}
	return &HistoryLog{w: w, numSlices: I, numRAs: J, periodT: T}, h, nil
}

// ReplayHistoryLogFile replays a history log from disk.
func ReplayHistoryLogFile(path string) (*History, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	// Read-only handle: the close error carries no information the replay
	// result doesn't already have, so it is dropped deliberately.
	defer func() { _ = f.Close() }()
	return ReplayHistoryLog(f)
}

func readF64(b *[]byte) float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64((*b)[:8]))
	*b = (*b)[8:]
	return v
}
