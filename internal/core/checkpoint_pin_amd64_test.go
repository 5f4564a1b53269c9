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
// byte across commits: these digests were computed at 16734da, before the
// element-wise passes of the training step had vector forms, and every
// kernel since must reproduce them. amd64 only: arm64 Go fuses x*y+z into
// one rounding, so its (equally deterministic) bytes are different ones.
// Not under -race, which slows the four trainings tenfold to watch one
// goroutine.
func TestCheckpointDigestPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "ba70c7fb8d671349865cbe59b0fb85651586b7190a61a1428235e6b60acb6295",
		2: "1216b570c9fbfe118bbf6603f0a1e4a0b100cc722d0343be419a85c129cf86fe",
		3: "4205401f433b25fa64dfacfcbe0c715510f5a21c6e560bee6f6bb292de8d25eb",
		4: "4d63f182a045eced0cdab117f98c381bd6e9ebb0256312f6a741cb128049b385",
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
