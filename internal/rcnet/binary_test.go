package rcnet

import (
	"bufio"
	"bytes"
	"testing"
)

// encodeFrame is one binary frame of e.
func encodeFrame(t testing.TB, e Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := appendBinary(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// kitchenSink sets every envelope field, so a buffer it was decoded into
// holds stale content wherever a later frame could leak it.
func kitchenSink() Envelope {
	e := benchReportEnvelope()
	e.Z, e.Y = []float64{1, 2, 3}, []float64{-1, -2, -3}
	e.ZHist = [][]float64{{4, 5}, {6}, {7, 8, 9}}
	e.YHist = [][]float64{{-4}, {-5, -6}}
	return e
}

// TestBinaryDecodeWarmAllocFree pins the hub's per-report cost: a full perf
// report decoded into a buffer that already held one, and copied into a
// collect slot that already held one, allocates nothing.
func TestBinaryDecodeWarmAllocFree(t *testing.T) {
	frame := encodeFrame(t, benchReportEnvelope())
	var rd bytes.Reader
	mr := &msgReader{br: bufio.NewReaderSize(&rd, 64*1024)}
	var b reportBuf
	var out Envelope
	decode := func() {
		rd.Reset(frame)
		mr.br.Reset(&rd)
		if err := mr.readInto(&b.env); err != nil {
			t.Fatal(err)
		}
		copyEnvelope(&out, &b.env)
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("warm report decode + collect copy allocates %v times, want 0", n)
	}
	if !bytes.Equal(encodeFrame(t, out), frame) {
		t.Error("collected copy does not re-encode to the frame it was decoded from")
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary frame decoder the hub
// readers run. Every input must decode to an error or an envelope, never a
// panic; decoding into a buffer that still holds a kitchen-sink frame must
// give the values and lengths decoding into a zero Envelope gives (compared
// re-encoded, bit for bit), so no field of an earlier frame leaks; and a
// decoded buffer goes back to a free list only if its frame was small
// enough to recycle. The seed corpus lives in testdata/fuzz/FuzzReadBinary.
func FuzzReadBinary(f *testing.F) {
	// A report padded to just under maxLineBytes: decoded, never recycled.
	huge := benchReportEnvelope()
	huge.ZHist = [][]float64{make([]float64, (maxLineBytes-4096)/8)}
	checkFrame(f, encodeFrame(f, huge))
	f.Fuzz(func(t *testing.T, data []byte) { checkFrame(t, data) })
}

func checkFrame(t testing.TB, data []byte) {
	if len(data) == 0 || data[0] != binMagic {
		return // a JSON line or nothing: not the binary decoder's input
	}
	// decode reads data into b, after first decoding the frame before, if any.
	decode := func(b *reportBuf, before []byte) error {
		mr := &msgReader{br: bufio.NewReader(bytes.NewReader(append(before, data...)))}
		if before != nil {
			if err := mr.readInto(&b.env); err != nil {
				t.Fatalf("kitchen-sink frame: %v", err)
			}
		}
		err := mr.readInto(&b.env)
		b.frameLen = mr.frameLen
		return err
	}
	var fresh, warm reportBuf
	err := decode(&fresh, nil)
	warmErr := decode(&warm, encodeFrame(t, kitchenSink()))
	if (err == nil) != (warmErr == nil) {
		t.Fatalf("fresh decode: %v, warm decode: %v", err, warmErr)
	}
	if err != nil {
		return
	}
	if f, w := encodeFrame(t, fresh.env), encodeFrame(t, warm.env); !bytes.Equal(f, w) {
		t.Fatalf("warm decode differs from fresh:\nfresh %x\n warm %x", f, w)
	}
	h := &Hub{free: make(chan *reportBuf, 1)}
	h.putReport(&fresh)
	if kept, small := len(h.free) == 1, fresh.frameLen <= maxRecycledFrame; kept != small {
		t.Fatalf("a %d-byte frame's buffer recycled = %v, want %v", fresh.frameLen, kept, small)
	}
}
