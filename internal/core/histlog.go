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
// every record the executors commit, in the telemetry record log
// (length-prefixed, CRC-checked), replayable into an exact History — with
// streaming recording, long runs stay lossless on disk.
//
// Format (log payloads, little-endian; a History holds the same payloads):
//
//	header   "ESHL" | version u32 | numSlices u32 | numRAs u32 | T u32 | numResources u32
//	interval 0x01 | sysPerf f64 | slicePerf[I] f64 | usage[I][K] f64 | violation f64
//	period   0x02 | perf[I][J] f64 | sla[I] u8 | primal f64 | dual f64
//
// A HistoryLog is not safe for concurrent use; the executors write from
// the single run-driving goroutine.
type HistoryLog struct {
	w                 *telemetry.LogWriter
	numSlices, numRAs int
	buf               []byte
}

// histLogVersion is the on-disk format version.
const histLogVersion = 1

var histLogMagic = [4]byte{'E', 'S', 'H', 'L'}

const (
	histRecInterval byte = 1
	histRecPeriod   byte = 2
)

// histLogNumResources is the resource-domain count K of every usage row.
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
	}
	return l, err
}

// NewHistoryLog wraps a telemetry log writer and writes the header record.
func NewHistoryLog(w *telemetry.LogWriter, numSlices, numRAs, t int) (*HistoryLog, error) {
	if err := checkHistShape(numSlices, numRAs, t, histLogNumResources); err != nil {
		return nil, err
	}
	hdr := append(make([]byte, 0, 4+5*4), histLogMagic[:]...)
	for _, v := range []int{histLogVersion, numSlices, numRAs, t, histLogNumResources} {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v))
	}
	if err := w.Append(hdr); err != nil {
		return nil, err
	}
	return &HistoryLog{w: w, numSlices: numSlices, numRAs: numRAs}, nil
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// f64 decodes the float at byte offset off of a record.
func f64(rec []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[off:]))
}

// appendInterval is the one interval-record encoder, of History and log
// alike: it checks the record against an I-slice shape — on a misshapen one
// it writes nothing and returns the error — and appends it to b.
func appendInterval(b []byte, I int, sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) ([]byte, error) {
	if len(slicePerf) != I || len(usage) != I {
		return b, fmt.Errorf("core: interval record has %d/%d slices, want %d", len(slicePerf), len(usage), I)
	}
	for i, row := range usage {
		if len(row) != histLogNumResources {
			return b, fmt.Errorf("core: interval record usage row %d has %d resources, want %d", i, len(row), histLogNumResources)
		}
	}
	b = appendF64(append(b, histRecInterval), sysPerf)
	for _, v := range slicePerf {
		b = appendF64(b, v)
	}
	for _, row := range usage {
		for _, v := range row {
			b = appendF64(b, v)
		}
	}
	return appendF64(b, violation), nil
}

// appendPeriod is the period-record encoder: it checks the record against
// an I-slice, J-RA shape as appendInterval does and appends it to b — kind
// and grid only when grid is set, so a streaming History stores the tail.
func appendPeriod(b []byte, I, J int, perf [][]float64, sla []bool, primal, dual float64, grid bool) ([]byte, error) {
	if len(perf) != I || len(sla) != I {
		return b, fmt.Errorf("core: period record has %d/%d slices, want %d", len(perf), len(sla), I)
	}
	for i, row := range perf {
		if len(row) != J {
			return b, fmt.Errorf("core: period record row %d has %d RAs, want %d", i, len(row), J)
		}
	}
	if grid {
		b = append(b, histRecPeriod)
		for _, row := range perf {
			for _, v := range row {
				b = appendF64(b, v)
			}
		}
	}
	for _, ok := range sla {
		var v byte
		if ok {
			v = 1
		}
		b = append(b, v)
	}
	return appendF64(appendF64(b, primal), dual), nil
}

// LogInterval appends one interval record (usage is [slice][resource]).
func (l *HistoryLog) LogInterval(sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) error {
	return l.append(appendInterval(l.buf[:0], l.numSlices, sysPerf, slicePerf, usage, violation))
}

// LogPeriod appends one period record (perf is [slice][ra]).
func (l *HistoryLog) LogPeriod(perf [][]float64, sla []bool, primal, dual float64) error {
	return l.append(appendPeriod(l.buf[:0], l.numSlices, l.numRAs, perf, sla, primal, dual, true))
}

// append appends the record an encoder just wrote into the log's buffer.
func (l *HistoryLog) append(b []byte, err error) error {
	if err != nil {
		return err
	}
	l.buf = b
	return l.w.Append(b)
}

// Sync flushes buffered records and fsyncs when file-backed.
func (l *HistoryLog) Sync() error { return l.w.Sync() }

// Close flushes, syncs, and closes the log.
func (l *HistoryLog) Close() error { return l.w.Close() }

// histIntervalLen and histPeriodLen are the byte lengths of an interval and
// a period record of an I-slice, J-RA, K-resource log.
func histIntervalLen(I, K int) int { return 1 + 8*(2+I+I*K) }
func histPeriodLen(I, J int) int   { return 1 + 8*I*J + I + 16 }

// checkHistShape returns an error unless the shape is positive and both
// record kinds fit under the telemetry log's record cap, so a reader never
// sizes a History for a log that can hold no record. The divisions bound
// I·K and I·J before any product is formed, so nothing overflows.
func checkHistShape(I, J, T, K int) error {
	if I <= 0 || J <= 0 || T <= 0 || K <= 0 {
		return fmt.Errorf("core: invalid history log shape %dx%dxT%d K%d", I, J, T, K)
	}
	const words = telemetry.MaxRecordBytes / 8
	if I > words || K > words/I || J > words/I ||
		histIntervalLen(I, K) > telemetry.MaxRecordBytes || histPeriodLen(I, J) > telemetry.MaxRecordBytes {
		return fmt.Errorf("core: history log shape %dx%dxT%d K%d has records over the %d-byte cap",
			I, J, T, K, telemetry.MaxRecordBytes)
	}
	return nil
}

// parseHistHeader validates a history log's header record and returns the
// run shape it declares, which must have this build's K resource domains.
func parseHistHeader(hdr []byte) (I, J, T int, err error) {
	if len(hdr) != 4+5*4 || string(hdr[:4]) != string(histLogMagic[:]) {
		return 0, 0, 0, fmt.Errorf("core: not a history log (bad header)")
	}
	var v [5]int
	for i := range v {
		v[i] = int(binary.LittleEndian.Uint32(hdr[4+4*i:]))
	}
	if v[0] != histLogVersion {
		return 0, 0, 0, fmt.Errorf("core: history log version %d, this build reads %d", v[0], histLogVersion)
	}
	if err := checkHistShape(v[1], v[2], v[3], v[4]); err != nil {
		return 0, 0, 0, err
	}
	if v[4] != histLogNumResources {
		return 0, 0, 0, fmt.Errorf("core: history log records %d resource domains, this build reads %d", v[4], histLogNumResources)
	}
	return v[1], v[2], v[3], nil
}

// readHistLog reads a history log into a new exact History, storing each
// record unchanged once its kind and length check out. cut counts the
// records of the longest prefix that ends on a whole completed period
// (interval count = periods × T).
func readHistLog(r io.Reader) (h *History, cut [2]int, truncated bool, err error) {
	lr := telemetry.NewLogReader(r)
	rec, err := lr.Next()
	if err != nil {
		if err == telemetry.ErrTruncated {
			return nil, cut, true, fmt.Errorf("core: history log header truncated")
		}
		return nil, cut, false, fmt.Errorf("core: empty history log: %w", err)
	}
	I, J, T, err := parseHistHeader(rec)
	if err != nil {
		return nil, cut, false, err
	}
	h = NewHistory(I, J, T)
	for {
		if h.n[pdKind]*T == h.n[ivKind] {
			cut = h.n
		}
		if rec, err = lr.Next(); err == io.EOF {
			return h, cut, false, nil
		} else if err == telemetry.ErrTruncated {
			return h, cut, true, nil
		} else if err != nil {
			return h, cut, false, err
		}
		switch {
		case len(rec) == h.size[ivKind] && rec[0] == histRecInterval:
			h.store(ivKind, rec)
		case len(rec) == h.size[pdKind] && rec[0] == histRecPeriod:
			h.store(pdKind, rec)
		default:
			return h, cut, false, fmt.Errorf("core: history record of %d bytes is neither a %d-byte interval nor a %d-byte period record", len(rec), h.size[ivKind], h.size[pdKind])
		}
	}
}

// ReplayHistoryLog reads a history log and reconstructs the exact History
// it records. truncated reports that the log ended mid-record (a crashed
// writer); every complete record before the partial tail is recovered.
func ReplayHistoryLog(r io.Reader) (h *History, truncated bool, err error) {
	h, _, truncated, err = readHistLog(r)
	return h, truncated, err
}

// OpenHistoryLogAppend reopens an existing history log for a resumed run:
// it replays the longest prefix that ends on a whole completed period, cuts
// off everything after it — a crashed coordinator leaves the in-flight
// period's intervals and possibly a partial record at the tail — and
// returns a HistoryLog that appends in place from the cut, plus the exact
// History of the kept prefix (feed it to System.PrimeFromHistory). No new
// header is written; the continued log replays as one seamless run.
func OpenHistoryLogAppend(path string) (*HistoryLog, *History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	h, cut, _, err := readHistLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: resume history log: %w", err)
	}
	// Every record of a kind has one size, so the prefix ends at a known byte.
	offset := int64(telemetry.RecordHeaderBytes + 4 + 5*4)
	for k := range h.col {
		h.col[k] = h.col[k][:cut[k]*h.size[k]]
		offset += int64(cut[k] * (telemetry.RecordHeaderBytes + h.size[k]))
	}
	h.n = cut
	w, err := telemetry.ResumeLog(path, offset)
	if err != nil {
		return nil, nil, err
	}
	return &HistoryLog{w: w, numSlices: h.NumSlices, numRAs: h.NumRAs}, h, nil
}

// ReplayHistoryLogFile replays a history log from disk.
func ReplayHistoryLogFile(path string) (*History, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	// A read-only handle's close error says nothing the replay has not.
	defer func() { _ = f.Close() }()
	return ReplayHistoryLog(f)
}
