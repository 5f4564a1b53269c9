package core

import (
	"bytes"
	"testing"

	"edgeslice/internal/ckpt"
)

// BenchmarkReadRestore reads the checkpoint a default 12,000-step training
// at seed 1 writes, trained once outside the timer, and restores every
// agent for training: what resuming from a file pays before its first
// step. B/file is the checkpoint's size.
func BenchmarkReadRestore(b *testing.B) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, sys, ckpt.SnapshotOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ckpt.Read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range c.Agents {
			if _, err := ckpt.RestoreAgent(st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(data)), "B/file")
}
