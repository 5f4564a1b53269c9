//go:build amd64 && !race

package ckpt_test

import (
	"fmt"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
	"edgeslice/internal/rl/rltest"
)

// TestSnapshotContentPinned is the one pin of the trainers, 24 trainings:
// a default System.Train at 2000 steps (seeds 1-4), DDPG and SAC
// after 300 small-config steps with their replay, and VPG, PPO and TRPO
// after two default horizons, each on the 5×3 target task and on
// Fig. 10(b)'s training environment at seeds 1-2. Each is hashed through
// contentHash after a Write and Read, so the digests hold across format
// changes that keep every value (TestCheckpointGoldenFile pins the
// layout): network init, exploration, critic targets, gradients, Adam, the
// order of every draw and each config's encoding must stay as they are.
// The digests were derived at checkpoint format v3, the six on-policy
// netsim ones when those rows began observing queues, as Fig. 10(b) trains.
// amd64 only: arm64 Go fuses x*y+z into one rounding, so its (equally
// deterministic) values are different ones. Not under -race, which slows
// the trainings tenfold to watch one goroutine.
func TestSnapshotContentPinned(t *testing.T) {
	// pin trains a for steps in e and compares its snapshot's content
	// digest with want.
	pin := func(t *testing.T, a trainable, e rl.Env, steps int, opts ckpt.SnapshotOptions, want, name string) {
		t.Helper()
		if err := a.Train(e, steps); err != nil {
			t.Fatal(err)
		}
		st, err := a.Snapshot(opts)
		if err != nil {
			t.Fatal(err)
		}
		c := &ckpt.Checkpoint{Format: ckpt.Format, Algorithm: "EdgeSlice", Agents: []*ckpt.AgentState{st}}
		if got := contentDigest(t, c); got != want {
			t.Errorf("%s: content sha256 %s, pinned %s", name, got, want)
		}
	}
	// env is the target task, or the environment Fig. 10(b)'s trainers
	// get from core.Config.NewTrainingEnv.
	env := func(t *testing.T, kind string, seed int64) rl.Env {
		if kind == "target" {
			return rltest.NewTargetEnv(mathutil.NewRNG(seed), 5, 3, 20)
		}
		envCfg := netsim.DefaultExperimentConfig()
		envCfg.ObserveQueue = true
		envCfg.TrainCoordRandom = true
		envCfg.Seed = seed + 104729
		e, err := netsim.New(envCfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("system", func(t *testing.T) {
		for seed, want := range map[int64]string{
			1: "5181dfeebcbb2d4f78cb5651620469c16f1a76df209f3d0d4e780c06d7a7e0e4",
			2: "ab2534fb2a223a772878dd558e46bc835993f52603e24c63f311b1d569c7c8b0",
			3: "416367ca065ef30c452385e626dd8797ce4ca7d0c68062a8dfbd0b708547ff4e",
			4: "4d4731f4e3105f9a475bd6ef239a6991b57efaedcccdcd04199c77757aaa29c5",
		} {
			cfg := core.DefaultConfig()
			cfg.TrainSteps = 2000
			cfg.Seed = seed
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Train(); err != nil {
				t.Fatal(err)
			}
			c, err := sys.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			key, err := core.TrainingKey(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := ckpt.Key(c.Algorithm, c.ConfigHash, c.Seed, c.TrainSteps); c.Format != ckpt.Format || !c.Shared || got != key {
				t.Errorf("seed %d: header format %q, shared %v, key %s; want %q, shared, key %s", seed, c.Format, c.Shared, got, ckpt.Format, key)
			}
			if got := contentDigest(t, c); got != want {
				t.Errorf("seed %d: content sha256 %s, pinned %s", seed, got, want)
			}
		}
	})

	t.Run("offpolicy", func(t *testing.T) {
		for _, tc := range []struct {
			tech, env string
			seed      int64
			want      string
		}{
			{offpolicy.DDPG, "target", 1, "efe564207b91686825e9ee8480f7126b0be27ce4d7035bd7d16f85117640c6dc"},
			{offpolicy.DDPG, "target", 2, "e4e7c23fc1dfd623410b4db5a8a281ea3e91af0f766af655c35339ec3aa8403e"},
			{offpolicy.DDPG, "netsim", 1, "911c1b19053e4e2cd7ad5e7f4d6a0f063d39daa87476460ebc54a65b1bc51c5a"},
			{offpolicy.DDPG, "netsim", 2, "c9f01b4ef99e648e2cf1c7df57da04ca696ec285f864a3b6ca7bd3c434cd5d09"},
			{offpolicy.SAC, "target", 1, "f39514e48371263fc88f07d88ddf73ee6ab56137c9648314881e40dbcfe48b13"},
			{offpolicy.SAC, "target", 2, "f5764eb4b88d357d82d9aafae41b801f2362d604657249252a3be69c01dae4e2"},
			{offpolicy.SAC, "netsim", 1, "b4bd80e1a3ea2a3e608092b347ba6769ff2d4c61d2286add948dfca130fb232c"},
			{offpolicy.SAC, "netsim", 2, "aadf7be6733f60ea32eaf04e523804208a7aabdee5f96ba9a9b8c6ef6c82e7b3"},
		} {
			e := env(t, tc.env, tc.seed)
			cfg := offpolicy.DefaultConfig(tc.tech)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity, cfg.Seed = 16, 16, 50, 200, tc.seed
			if tc.tech == offpolicy.DDPG {
				cfg.NoiseDecay = 0.99
			}
			a, err := offpolicy.New(e.StateDim(), e.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pin(t, a, e, 300, ckpt.SnapshotOptions{IncludeReplay: true}, tc.want, fmt.Sprintf("%s on %s, seed %d", tc.tech, tc.env, tc.seed))
		}
	})

	t.Run("onpolicy", func(t *testing.T) {
		for _, tc := range []struct {
			tech, env string
			seed      int64
			want      string
		}{
			{onpolicy.VPG, "target", 1, "5f563a83b772e280e41b75a3d6205f02ac22f175621aff6dd56017c3c1e5d5f0"},
			{onpolicy.VPG, "target", 2, "c2b41e98d29199b1aff08c34d8968931086b5ee7ff47f9d155eccdb3f699d152"},
			{onpolicy.VPG, "netsim", 1, "2a02f39e4e19b82fda4d84329a63be90f8efc025d3c78bade393ecf4782592b2"},
			{onpolicy.VPG, "netsim", 2, "356af8bd3f97134abc9b5e1bd8eb8c24240fb8c0a749e7fe252c0e1bc6589fac"},
			{onpolicy.PPO, "target", 1, "05fb1fde9814fa87d5a61aefc847227beece99c3f894288d9d234a915562f202"},
			{onpolicy.PPO, "target", 2, "eda63d51157485d17b384991b0f80d40d43b8ed577c56ddf7dda138fa89b4f0b"},
			{onpolicy.PPO, "netsim", 1, "2eb315b56a493e72b771b7187751698c0380b149e156a8e2367fa8f0d17edf93"},
			{onpolicy.PPO, "netsim", 2, "82d47c49cfe20a1c3e32ad9b7873fd5d943b683561f977e7465a3795ec193a21"},
			{onpolicy.TRPO, "target", 1, "fc4355502c97679b5abb9aefc948736358aa3bd2cd00499fca2a71493101f922"},
			{onpolicy.TRPO, "target", 2, "5dc176a0f8da8279655256ca01db193b93ececfad8e9190c518a546bfe1fcb98"},
			{onpolicy.TRPO, "netsim", 1, "0355cf6f07d614ecc2e155612dbc8d68ca53597fbdb041e34f168f736422eaf9"},
			{onpolicy.TRPO, "netsim", 2, "69a9b3fb7afbb58b1aa7eafe8691ae756de3486036256afa3a1f9fe9284a6f19"},
		} {
			e := env(t, tc.env, tc.seed)
			cfg := onpolicy.DefaultConfig(tc.tech)
			cfg.Seed = tc.seed
			a, err := onpolicy.New(e.StateDim(), e.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pin(t, a, e, 2*cfg.Horizon, ckpt.SnapshotOptions{}, tc.want, fmt.Sprintf("%s on %s, seed %d", tc.tech, tc.env, tc.seed))
		}
	})
}
