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
// the agent learns from, changed); every kernel since must reproduce them. amd64 only: arm64 Go fuses x*y+z into
// one rounding, so its (equally deterministic) bytes are different ones.
// Not under -race, which slows the four trainings tenfold to watch one
// goroutine.
func TestCheckpointDigestPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "18a8eb321075adaf82b589d573f25c80f56d4e4a9e86918a40c9d6d1c59b8d01",
		2: "fce536c629a3df1c564f04388d5671c45bd57f7062f96fc6460e76e247693dfb",
		3: "02009850225e45d5c15a362f888feb42e9e408da10e5f1d6e3a259b5e60b3ef9",
		4: "00dfdf8e2e99491fd4fd4139e3dbdbda28885e7eaa2902f3b806c5746ea7b075",
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
