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
// PCG whose state the checkpoint holds (format v3), once for format v4,
// whose content TestSnapshotContentPinned held across the move, and once
// when the header's config_hash became core.TrainingKey's hash; every
// kernel since must reproduce them. amd64 only: arm64 Go fuses x*y+z into
// one rounding, so its (equally deterministic) bytes are different ones.
// Not under -race, which slows the four trainings tenfold to watch one
// goroutine.
func TestCheckpointDigestPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "53f5d14c6bb266e30fdc318d4d26b194212e8dfe831ce1c547c9b1151e905622",
		2: "b6b2d77280735c54e8fe90c71ae027ff237e5b944266b48e9c335803bb679f45",
		3: "a3de897cf7e664e1dba977dc991776f5ffd8801a88d1efd6345b4eff13d391d2",
		4: "317474a1f2d68bfcce220902cc477eb5a3cb4bf95fb25393c4f2cace8cc21b1c",
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
