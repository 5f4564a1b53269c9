package rcnet

import (
	"bufio"
	"bytes"
	"sync"
	"testing"
	"time"
)

// benchReportEnvelope builds a representative perf report: a full period of
// interval records (T=10) over 2 slices and 3 resources — the frame shape
// the coordinator decodes J times per period.
func benchReportEnvelope() Envelope {
	const T, slices, resources = 10, 2, 3
	e := Envelope{
		Type: MsgPerfReport, RA: 513, Period: 42,
		Perf:   []float64{-12.5, -7.25},
		Queues: []int{3, 9},
	}
	e.Intervals = make([]IntervalRecord, T)
	for t := 0; t < T; t++ {
		eff := make([][]float64, slices)
		for i := range eff {
			eff[i] = []float64{0.25 + float64(t), 0.5, 0.125 * float64(i+1)}
			_ = resources
		}
		e.Intervals[t] = IntervalRecord{
			Perf:      []float64{-1.25 - float64(t), -0.5},
			Queues:    []int{t, t + 1},
			Effective: eff,
			Violation: 0.0625 * float64(t),
		}
	}
	return e
}

// BenchmarkEnvelopeRoundTrip measures one encode+decode of a full perf
// report under each wire codec — the per-RA per-period serialization cost
// on both ends of the plane. The binary codec's point is the allocation
// column: run with -benchmem.
func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		codec := codec
		b.Run(codec.String(), func(b *testing.B) {
			e := benchReportEnvelope()
			var frame bytes.Buffer
			mw := newMsgWriter(&frame, codec, nil)
			var rd bytes.Reader
			mr := &msgReader{br: bufio.NewReaderSize(&rd, 64*1024)}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				frame.Reset()
				if err := mw.write(e); err != nil {
					b.Fatal(err)
				}
				rd.Reset(frame.Bytes())
				mr.br.Reset(&rd)
				var got Envelope
				if err := mr.readInto(&got); err != nil {
					b.Fatal(err)
				}
				if got.Type != MsgPerfReport || len(got.Intervals) != len(e.Intervals) {
					b.Fatalf("round-trip mangled the frame: %+v", got)
				}
			}
		})
	}
}

// BenchmarkHubPeriodsPerSec drives full coordination periods — broadcast
// 1024 columns, collect 1024 reports over real TCP — against one hub.
// Agents are minimal echo loops (no simulation), so the measurement
// isolates the coordination plane: frame codec, broadcast fan-out, and
// collect fan-in.
func BenchmarkHubPeriodsPerSec(b *testing.B) {
	const ras, slices = 1024, 2
	h, err := NewHub("127.0.0.1:0", slices, ras)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for ra := 0; ra < ras; ra++ {
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			c, err := DialAgentCodec(h.Addr(), ra, 30*time.Second, CodecBinary)
			if err != nil {
				return // surfaces as a WaitRegistered/Broadcast failure below
			}
			defer c.Close()
			perf := []float64{-1 - float64(ra), -2}
			for {
				m, err := c.Recv(60 * time.Second)
				if err != nil || m.Type == MsgShutdown {
					return
				}
				if m.Type != MsgCoordination {
					continue
				}
				if err := c.Report(m.Period, perf, nil, nil); err != nil {
					return
				}
			}
		}(ra)
	}
	if err := h.WaitRegistered(60 * time.Second); err != nil {
		b.Fatal(err)
	}
	z := make([][]float64, slices)
	y := make([][]float64, slices)
	for i := range z {
		z[i] = make([]float64, ras)
		y[i] = make([]float64, ras)
		for ra := 0; ra < ras; ra++ {
			z[i][ra] = float64(ra) * 0.5
			y[i][ra] = float64(i) * 0.25
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := h.Broadcast(n, z, y); err != nil {
			b.Fatal(err)
		}
		if _, err := collect(h, n, 60*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "periods/sec")
	if err := h.Shutdown(); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
}
