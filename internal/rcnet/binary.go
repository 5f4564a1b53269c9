package rcnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary wire codec: the same envelopes as the JSON codec, framed as
//
//	magic(1) | kind(1) | payloadLen(uint32 LE) | payload
//
// with a fixed little-endian payload layout per envelope (ints as int32,
// floats as IEEE-754 bits, every slice length-prefixed with a uint32
// count). The layout is positional and complete — every field is always
// present — so encode/decode is a single linear pass with no reflection and
// no field names on the wire. Decoding reuses the capacity of the target
// Envelope's slices (a zero-count slice decodes as empty), so a warm decode
// allocates nothing (TestBinaryDecodeWarmAllocFree). A 1,000-RA
// coordinator spends most of its period budget on frame encode/decode;
// this codec is the cheap half of the scaling story (sharding is the
// other), and BenchmarkEnvelopeRoundTrip tracks both codecs.
//
// The magic byte cannot open a JSON frame ('{' = 0x7B), which is what lets
// a reader detect the codec per frame and the hub serve mixed fleets.

// binMagic opens every binary frame.
const binMagic = 0xE5

// binHeaderLen is magic + kind + payload length.
const binHeaderLen = 6

// Message kinds index the wire-stats counters and the binary kind byte.
const (
	kindRegister = iota
	kindCoordination
	kindPerfReport
	kindShutdown
	kindHeartbeat
	kindResume
	kindOther
	numMsgKinds
)

var msgKindNames = [numMsgKinds]MsgType{
	MsgRegister, MsgCoordination, MsgPerfReport, MsgShutdown,
	MsgHeartbeat, MsgResume, "other",
}

// msgKindOf maps a message type to its counter/wire index.
func msgKindOf(t MsgType) int {
	switch t {
	case MsgRegister:
		return kindRegister
	case MsgCoordination:
		return kindCoordination
	case MsgPerfReport:
		return kindPerfReport
	case MsgShutdown:
		return kindShutdown
	case MsgHeartbeat:
		return kindHeartbeat
	case MsgResume:
		return kindResume
	default:
		return kindOther
	}
}

// appendBinary encodes e as one binary frame into buf. The header is
// written first with a zero length, then patched once the payload size is
// known — buf is always a freshly Reset scratch owned by one msgWriter.
func appendBinary(buf *bytes.Buffer, e Envelope) error {
	kind := msgKindOf(e.Type)
	if kind == kindOther {
		return fmt.Errorf("rcnet: binary codec cannot carry message type %q", e.Type)
	}
	start := buf.Len()
	buf.Write([]byte{binMagic, byte(kind), 0, 0, 0, 0})
	putInt(buf, e.RA)
	putInt(buf, e.Period)
	putFloats(buf, e.Z)
	putFloats(buf, e.Y)
	putFloats(buf, e.Perf)
	putInts(buf, e.Queues)
	putUint32(buf, uint32(len(e.Intervals)))
	for _, ir := range e.Intervals {
		putFloats(buf, ir.Perf)
		putInts(buf, ir.Queues)
		putUint32(buf, uint32(len(ir.Effective)))
		for _, row := range ir.Effective {
			putFloats(buf, row)
		}
		putFloat(buf, ir.Violation)
	}
	putFloatRows(buf, e.ZHist)
	putFloatRows(buf, e.YHist)
	payload := buf.Len() - start - binHeaderLen
	if payload > maxLineBytes {
		return fmt.Errorf("rcnet: frame too large (>%d bytes)", maxLineBytes)
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[start+2:start+binHeaderLen], uint32(payload))
	return nil
}

func putUint32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func putInt(buf *bytes.Buffer, v int) { putUint32(buf, uint32(int32(v))) }

func putFloat(buf *bytes.Buffer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	buf.Write(b[:])
}

func putFloats(buf *bytes.Buffer, vs []float64) {
	putUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		putFloat(buf, v)
	}
}

func putInts(buf *bytes.Buffer, vs []int) {
	putUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		putInt(buf, v)
	}
}

func putFloatRows(buf *bytes.Buffer, rows [][]float64) {
	putUint32(buf, uint32(len(rows)))
	for _, row := range rows {
		putFloats(buf, row)
	}
}

// readBinary reads one binary frame after the magic byte was peeked and
// decodes it into e, reusing the capacity of e's slices and rows. Every
// field is overwritten, so a warm e decodes to the values and lengths a zero
// Envelope would (FuzzReadBinary); on error e's contents are unspecified.
//
//edgeslice:noalloc
func (mr *msgReader) readBinary(e *Envelope) error {
	hdr, err := mr.br.Peek(binHeaderLen)
	if err != nil {
		return err
	}
	kind := int(hdr[1])
	if kind >= kindOther {
		//edgeslice:allocok cold error path
		return fmt.Errorf("rcnet: malformed frame: unknown kind %d", kind)
	}
	n := int(binary.LittleEndian.Uint32(hdr[2:]))
	if n > maxLineBytes {
		//edgeslice:allocok cold error path
		return fmt.Errorf("rcnet: frame too large (>%d bytes)", maxLineBytes)
	}
	_, _ = mr.br.Discard(binHeaderLen)
	mr.buf = resize(mr.buf, n)
	if _, err := io.ReadFull(mr.br, mr.buf); err != nil {
		return err
	}
	d := binDecoder{b: mr.buf}
	e.Type, e.RA, e.Period = msgKindNames[kind], d.int(), d.int()
	e.Z, e.Y = d.floats(e.Z), d.floats(e.Y)
	e.Perf, e.Queues = d.floats(e.Perf), d.ints(e.Queues)
	e.Intervals = resize(e.Intervals, d.count(20)) // 3 counts + violation
	for i := range e.Intervals {
		ir := &e.Intervals[i]
		ir.Perf, ir.Queues = d.floats(ir.Perf), d.ints(ir.Queues)
		ir.Effective = d.floatRows(ir.Effective)
		ir.Violation = d.float()
	}
	e.ZHist, e.YHist = d.floatRows(e.ZHist), d.floatRows(e.YHist)
	if d.err != nil {
		//edgeslice:allocok cold error path
		return fmt.Errorf("rcnet: malformed frame: %w", d.err)
	}
	if len(d.b) != 0 {
		//edgeslice:allocok cold error path
		return fmt.Errorf("rcnet: malformed frame: %d trailing bytes", len(d.b))
	}
	mr.count(binHeaderLen+n, e.Type)
	return nil
}

// resize returns s with length n, reusing s's backing array (and, for rows,
// the rows parked in it) whenever its capacity suffices.
//
//edgeslice:noalloc
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		//edgeslice:allocok grows only when a frame outgrows the buffer it decodes into
		return append(s[:cap(s)], make([]E, n-cap(s))...)
	}
	return s[:n]
}

// binDecoder is a linear cursor over a binary payload; the first decode
// error sticks and every later read returns zero values.
type binDecoder struct {
	b   []byte
	err error
}

var errShortFrame = fmt.Errorf("truncated payload")

func (d *binDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = errShortFrame
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *binDecoder) int() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int(int32(binary.LittleEndian.Uint32(b)))
}

// count reads a slice length and bounds it by the remaining payload at
// minSize wire bytes per element, so a hostile count cannot allocate more
// than a small multiple of the frame (at worst a 24-byte row per 4 bytes).
func (d *binDecoder) count(minSize int) int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > len(d.b)/minSize {
		d.err = errShortFrame
		return 0
	}
	return n
}

func (d *binDecoder) float() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

//edgeslice:noalloc
func (d *binDecoder) floats(dst []float64) []float64 {
	dst = resize(dst, d.count(8))
	for i := range dst {
		dst[i] = d.float()
	}
	return dst
}

//edgeslice:noalloc
func (d *binDecoder) ints(dst []int) []int {
	dst = resize(dst, d.count(4))
	for i := range dst {
		dst[i] = d.int()
	}
	return dst
}

//edgeslice:noalloc
func (d *binDecoder) floatRows(dst [][]float64) [][]float64 {
	dst = resize(dst, d.count(4))
	for i := range dst {
		dst[i] = d.floats(dst[i])
	}
	return dst
}
