package core

import (
	"bytes"
	"reflect"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
)

// restoreAgents installs c's agents in s as full trainers.
func restoreAgents(t *testing.T, s *System, c *ckpt.Checkpoint) {
	t.Helper()
	agents := make([]rl.Agent, len(c.Agents))
	for j, st := range c.Agents {
		a, err := ckpt.RestoreAgent(st)
		if err != nil {
			t.Fatal(err)
		}
		agents[j] = a
	}
	if err := s.SetAgents(agents); err != nil {
		t.Fatal(err)
	}
}

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
	restoreAgents(t, restoredSys, c)

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

// TestRestoreRejectsMismatches pins the checks a checkpoint passes before
// its agents install (checkCheckpoint): format, algorithm and dimensions.
func TestRestoreRejectsMismatches(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.checkCheckpoint(&ckpt.Checkpoint{Format: "bogus"}); err == nil {
		t.Fatal("bad format should fail")
	}
	err = sys.checkCheckpoint(&ckpt.Checkpoint{
		Format:    ckpt.FormatV2,
		Algorithm: AlgoEdgeSliceNT.String(),
		Agents:    []*ckpt.AgentState{{Algo: "ddpg", StateDim: 1, ActionDim: 1}},
	})
	if err == nil {
		t.Fatal("algorithm mismatch should fail")
	}
	err = sys.checkCheckpoint(&ckpt.Checkpoint{
		Format:    ckpt.FormatV2,
		Algorithm: AlgoEdgeSlice.String(),
		Agents:    []*ckpt.AgentState{{Algo: "ddpg", StateDim: 1, ActionDim: 1}},
	})
	if err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

// TestDeployKeepsRestoreChecks: a Deployment installs only where the
// checkpoint fits — format, algorithm, agent-count and per-RA dimension
// checks — and a system running it records what a system running the
// restored trainers records.
func TestDeployKeepsRestoreChecks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRAs = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(algo Algorithm, agents int) *ckpt.Checkpoint {
		c := &ckpt.Checkpoint{Format: ckpt.FormatV2, Algorithm: algo.String()}
		for j := 0; j < agents; j++ {
			dcfg := cfg.DDPG
			dcfg.Seed = int64(j + 1)
			dd, err := ddpg.New(sys.Env(j).StateDim(), sys.Env(j).ActionDim(), dcfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := dd.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c.Agents = append(c.Agents, st)
		}
		return c
	}
	deploy := func(s *System, c *ckpt.Checkpoint) error {
		d, err := DeployCheckpoint(c)
		if err != nil {
			return err
		}
		return s.Deploy(d)
	}

	if _, err := DeployCheckpoint(&ckpt.Checkpoint{Format: "bogus"}); err == nil {
		t.Error("bad format should fail")
	}
	if err := deploy(sys, checkpoint(AlgoEdgeSliceNT, 1)); err == nil {
		t.Error("algorithm mismatch should fail")
	}
	if err := deploy(sys, checkpoint(AlgoEdgeSlice, 2)); err == nil {
		t.Error("2 agents for 3 RAs should fail")
	}
	nt := cfg
	nt.Algo = AlgoEdgeSliceNT // observes no queues: a narrower state
	ntSys, err := NewSystem(nt)
	if err != nil {
		t.Fatal(err)
	}
	if err := deploy(ntSys, checkpoint(AlgoEdgeSliceNT, 3)); err == nil {
		t.Error("dimension mismatch should fail")
	}

	for _, agents := range []int{1, 3} {
		c := checkpoint(AlgoEdgeSlice, agents)
		restored, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		restoreAgents(t, restored, c)
		deployed, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := deploy(deployed, c); err != nil {
			t.Fatalf("%d agent(s): %v", agents, err)
		}
		h1, err := restored.RunPeriods(2)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := deployed.RunPeriods(2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h1, h2) {
			t.Errorf("%d agent(s): deployed system diverged from the restored one", agents)
		}
	}
}
