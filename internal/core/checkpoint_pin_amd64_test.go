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
// the agent learns from, changed), and once more when the trainer stream
// moved to a PCG whose state the checkpoint holds (format v3); every kernel
// since must reproduce them. amd64 only: arm64 Go fuses x*y+z into
// one rounding, so its (equally deterministic) bytes are different ones.
// Not under -race, which slows the four trainings tenfold to watch one
// goroutine.
func TestCheckpointDigestPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "d38d668c3b53ae03a3d4526883a095b32ac02c235a59edbc05a3e58cbb0d938e",
		2: "2098616860fab517da8f80087bbebb03d16e498f7667074d05506a62e6763ab7",
		3: "3b191e2b937059596b3b5838c703933055cab24d9e4ff4aef40a849adb98e966",
		4: "f15e74473cea9f865d2288323285f597817c98f407acc1fa9820bd42e3f6cba8",
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
