package core

import (
	"bytes"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/traffic"
)

// The default configs' training keys, which name checkpoint-store files,
// are pinned on every host: they hash config values only, no training. A
// renamed config type or a new training input moves them.
func TestTrainingKeyPinned(t *testing.T) {
	for algo, want := range map[Algorithm]string{
		AlgoEdgeSlice:   "EdgeSlice-cfbe01ecd7332901-s1-n12000-v4",
		AlgoEdgeSliceNT: "EdgeSlice-NT-86fbdb9332cabee1-s1-n12000-v4",
	} {
		cfg := DefaultConfig()
		cfg.Algo = algo
		if got, err := TrainingKey(cfg); err != nil || got != want {
			t.Errorf("%v: training key %s (%v), pinned %s", algo, got, err, want)
		}
	}
}

// trainedCheckpoint trains cfg and returns its checkpoint file's bytes.
func trainedCheckpoint(t *testing.T, cfg Config) []byte {
	t.Helper()
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
	return buf.Bytes()
}

// TrainingKey hashes exactly what Train reads. A field Train does not read
// (or overrides) leaves the key unchanged, and a training from the changed
// config writes the same checkpoint bytes; a field Train reads changes it.
func TestTrainingKeyReadsWhatTrainReads(t *testing.T) {
	base := DefaultConfig()
	base.TrainSteps = 1500
	baseKey, err := TrainingKey(base)
	if err != nil {
		t.Fatal(err)
	}
	var baseCkpt []byte
	for _, tc := range []struct {
		name    string
		edit    func(*Config)
		sameKey bool // Train does not read (or overrides) the field
	}{
		{"NumRAs", func(c *Config) { c.NumRAs = 5 }, true},
		{"Umin", func(c *Config) { c.Umin = []float64{-40, -60} }, true},
		{"Rho", func(c *Config) { c.Rho = 2.5 }, true},
		{"DDPG.Technique", func(c *Config) { c.DDPG.Technique = offpolicy.SAC }, true},
		{"DDPG.Seed", func(c *Config) { c.DDPG.Seed = 999 }, true},
		{"Algo", func(c *Config) { c.Algo = AlgoEdgeSliceNT }, false},
		{"DDPG.Hidden", func(c *Config) { c.DDPG.Hidden = 64 }, false},
		{"TrainEnv source", func(c *Config) {
			env := c.EnvTemplate
			env.Sources = append([]traffic.Source{traffic.ConstantSource{Lambda: 10}}, env.Sources[1:]...)
			c.TrainEnv = &env
		}, false},
		{"TrainSteps", func(c *Config) { c.TrainSteps++ }, false},
		{"Seed", func(c *Config) { c.Seed = 999 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			key, err := TrainingKey(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (key == baseKey) != tc.sameKey {
				t.Fatalf("key %s, base %s: want the same key = %v", key, baseKey, tc.sameKey)
			}
			if !tc.sameKey {
				return
			}
			if baseCkpt == nil {
				baseCkpt = trainedCheckpoint(t, base)
			}
			if !bytes.Equal(trainedCheckpoint(t, cfg), baseCkpt) {
				t.Errorf("same key, but the trained checkpoint differs from the base config's")
			}
		})
	}
}
