//go:build amd64 && !race

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"edgeslice/internal/ckpt"
)

// The checkpoint a default 2000-step training writes is pinned byte for
// byte across commits. The digests were computed at 16734da, before the
// element-wise passes of the training step had vector forms, and re-derived
// once when the training environments moved to a PCG stream with
// one-uniform Poisson inversion (their arrivals, and so every transition
// the agent learns from, changed), once when the trainer stream moved to a
// PCG whose state the checkpoint holds (format v3), and once for format v4,
// whose content TestSnapshotContentPinned held across the move; every
// kernel since must reproduce them. amd64 only: arm64 Go fuses x*y+z into
// one rounding, so its (equally deterministic) bytes are different ones.
// Not under -race, which slows the four trainings tenfold to watch one
// goroutine.
func TestCheckpointDigestPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "6845c58de421aa7105b84de3e214cd7c8a32f79db42bc8a32d5681235fb7d0c0",
		2: "6cfc879a8768ebf4fc5c6b5fb3f323c168bbe02777e96f3015f1c2958b431cf2",
		3: "1a23a6e3804e65a0abb85f4af29f76d6cb3b55f2488eff7e0658d21efa10fa3a",
		4: "62eb8d2de907d9d41c695dd84dda051cc381faf2ba331ee4ceed68f13fce7893",
	} {
		cfg := DefaultConfig()
		cfg.TrainSteps = 2000
		cfg.Seed = seed
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Train(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, sys, ckpt.SnapshotOptions{}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("seed %d: checkpoint sha256 %s (%d B), pinned %s", seed, got, buf.Len(), want)
		}
	}
}
