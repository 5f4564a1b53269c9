package telemetry

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The record log ("WAL idiom"): an append-only sequence of length-prefixed,
// CRC-checked records. Each record is
//
//	| length uint32 LE | crc32(payload) uint32 LE | payload |
//
// A crashed or killed writer leaves at most one partial record at the tail;
// readers detect it (short header, short payload, or CRC mismatch) and
// recover every complete record before it.

// ErrTruncated reports that a record log ended mid-record: the complete
// prefix was read, the partial tail was dropped.
var ErrTruncated = errors.New("telemetry: truncated record at log tail")

// MaxRecordBytes bounds a single record so a corrupt length prefix cannot
// ask the reader for an absurd allocation.
const MaxRecordBytes = 64 << 20

const recordHeaderBytes = 8

// RecordHeaderBytes is the fixed per-record framing overhead (length +
// CRC); readers tracking byte offsets for ResumeLog add it to each
// payload's length.
const RecordHeaderBytes = recordHeaderBytes

// LogWriter appends records to an append-only log. Writes are buffered;
// call Flush (or Sync, or Close) to push them down. The first write error
// is sticky. LogWriter is not safe for concurrent use.
type LogWriter struct {
	f   *os.File // nil when wrapping a plain io.Writer
	bw  *bufio.Writer
	err error
	hdr [recordHeaderBytes]byte
}

// NewLogWriter wraps an io.Writer (Sync is a no-op without a file).
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{bw: bufio.NewWriterSize(w, 64*1024)}
}

// CreateLog creates (truncating) a record log file.
func CreateLog(path string) (*LogWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create log: %w", err)
	}
	w := NewLogWriter(f)
	w.f = f
	return w, nil
}

// ResumeLog opens an existing record log for appending after discarding
// everything past offset — the byte position just after the last record
// the caller wants to keep (callers track it while reading; a partial or
// corrupt tail past it is cut off). Records appended through the returned
// writer continue the log in place; no new header or framing is written.
func ResumeLog(path string, offset int64) (*LogWriter, error) {
	if offset < 0 {
		return nil, fmt.Errorf("telemetry: resume log at negative offset %d", offset)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: resume log: %w", err)
	}
	if fi, err := f.Stat(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("telemetry: resume log: %w", err)
	} else if offset > fi.Size() {
		_ = f.Close()
		return nil, fmt.Errorf("telemetry: resume offset %d past log end %d", offset, fi.Size())
	}
	if err := f.Truncate(offset); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("telemetry: resume log: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("telemetry: resume log: %w", err)
	}
	w := NewLogWriter(f)
	w.f = f
	return w, nil
}

// Append writes one record.
func (w *LogWriter) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("telemetry: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush pushes buffered records to the underlying writer.
func (w *LogWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Sync flushes and, when file-backed, fsyncs.
func (w *LogWriter) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Close flushes, syncs, and closes the underlying file (if any). The
// writer must not be used afterwards.
func (w *LogWriter) Close() error {
	syncErr := w.Sync()
	if w.f != nil {
		if err := w.f.Close(); err != nil && syncErr == nil {
			syncErr = err
		}
		w.f = nil
	}
	return syncErr
}

// LogReader reads records appended by LogWriter. It is not safe for
// concurrent use.
type LogReader struct {
	br        *bufio.Reader
	buf       []byte
	truncated bool
}

// NewLogReader wraps an io.Reader.
func NewLogReader(r io.Reader) *LogReader {
	return &LogReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Next returns the next record's payload. It returns io.EOF at a clean end
// of log and ErrTruncated when the log ends mid-record (partial header or
// payload, or a CRC mismatch at the tail) — the usual state after a
// writer crash. The returned slice is only valid until the next call.
func (r *LogReader) Next() ([]byte, error) {
	var hdr [recordHeaderBytes]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		r.truncated = true
		return nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxRecordBytes {
		r.truncated = true
		return nil, ErrTruncated
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	payload := r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		r.truncated = true
		return nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != crc {
		r.truncated = true
		return nil, ErrTruncated
	}
	return payload, nil
}

// Truncated reports whether the reader hit a partial or corrupt tail.
func (r *LogReader) Truncated() bool { return r.truncated }
