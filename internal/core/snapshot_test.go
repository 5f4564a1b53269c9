package core

import (
	"bytes"
	"reflect"
	"testing"

	"edgeslice/internal/ckpt"
)

func fastLearningConfig() Config {
	cfg := DefaultConfig()
	cfg.TrainSteps = 400
	cfg.DDPG.Hidden = 8
	cfg.DDPG.BatchSize = 16
	cfg.DDPG.WarmupSteps = 50
	return cfg
}

// TestSystemSnapshotRestoreRoundTrip trains a 2-RA system, checkpoints it
// through the wire format, restores into a freshly built system, and
// verifies both produce identical orchestration runs.
func TestSystemSnapshotRestoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := fastLearningConfig()
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
	c, err := ckpt.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Shared || len(c.Agents) != 1 {
		t.Fatalf("shared-agent system snapshot: shared=%v agents=%d", c.Shared, len(c.Agents))
	}
	if c.ConfigHash == "" || c.Seed != cfg.Seed || c.TrainSteps != cfg.TrainSteps {
		t.Fatalf("checkpoint provenance incomplete: %+v", c)
	}

	restoredSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoredSys.Restore(c); err != nil {
		t.Fatal(err)
	}

	h1, err := sys.RunPeriods(2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := restoredSys.RunPeriods(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1.SystemPerf, h2.SystemPerf) {
		t.Fatalf("restored system diverged:\n original %v\n restored %v", h1.SystemPerf, h2.SystemPerf)
	}

	// The restored agents are full DDPG agents, so a restored system still
	// exposes their actor networks.
	if _, err := restoredSys.Actor(0); err != nil {
		t.Fatalf("restored system has no serializable actor: %v", err)
	}
}

func TestSnapshotRejectsBaselines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algo = AlgoTARO
	cfg.TrainSteps = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(ckpt.SnapshotOptions{}); err == nil {
		t.Fatal("baseline snapshot should fail")
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(&ckpt.Checkpoint{Format: "bogus"}); err == nil {
		t.Fatal("bad format should fail")
	}
	err = sys.Restore(&ckpt.Checkpoint{
		Format:    ckpt.FormatV2,
		Algorithm: AlgoEdgeSliceNT.String(),
		Agents:    []*ckpt.AgentState{{Algo: "ddpg", StateDim: 1, ActionDim: 1}},
	})
	if err == nil {
		t.Fatal("algorithm mismatch should fail")
	}
	err = sys.Restore(&ckpt.Checkpoint{
		Format:    ckpt.FormatV2,
		Algorithm: AlgoEdgeSlice.String(),
		Agents:    []*ckpt.AgentState{{Algo: "ddpg", StateDim: 1, ActionDim: 1}},
	})
	if err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}
