//go:build amd64 && !race

package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"maps"
	"math"
	"slices"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
	"edgeslice/internal/rl/rltest"
)

// contentHash feeds a snapshot's content to a sha256, independent of how
// the file lays it out: every network role in sorted order (layer shapes,
// activations, weights and biases as float64 bits), that role's Adam
// moments as RestoreAdam installs them, the config bytes, the generator
// state, the noise std, the log-stds and the replay ring.
type contentHash struct{ h hash.Hash }

func (c contentHash) u64(v uint64)   { c.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
func (c contentHash) f64(v float64)  { c.u64(math.Float64bits(v)) }
func (c contentHash) bytes(b []byte) { c.u64(uint64(len(b))); c.h.Write(b) }
func (c contentHash) f64s(vs []float64) {
	c.u64(uint64(len(vs)))
	for _, v := range vs {
		c.f64(v)
	}
}

func (c contentHash) agent(t *testing.T, st *ckpt.AgentState) {
	t.Helper()
	c.bytes([]byte(st.Algo))
	c.u64(uint64(st.StateDim))
	c.u64(uint64(st.ActionDim))
	c.bytes(st.Config)
	c.bytes(st.RNG)
	c.f64(st.NoiseStd)
	c.f64s(st.LogStd)
	for _, role := range slices.Sorted(maps.Keys(st.Nets)) {
		c.bytes([]byte(role))
		n, err := st.Net(role)
		if err != nil {
			t.Fatal(err)
		}
		c.u64(uint64(len(n.Layers)))
		for _, l := range n.Layers {
			c.u64(uint64(l.In))
			c.u64(uint64(l.Out))
			c.bytes([]byte(l.Act.String()))
			c.f64s(l.W.Data)
			c.f64s(l.B)
		}
		opt := nn.NewAdam(1e-3)
		if err := st.RestoreAdam(opt, n, role); err != nil {
			t.Fatal(err)
		}
		if m := opt.StateFor(n); m == nil {
			c.u64(0)
		} else {
			c.u64(1)
			c.u64(uint64(m.T))
			for i := range m.M {
				c.f64s(m.M[i])
				c.f64s(m.V[i])
			}
		}
	}
	capacity, next, trs, ok := replayContent(t, st)
	if !ok {
		c.u64(0)
		return
	}
	c.u64(1)
	c.u64(uint64(capacity))
	c.u64(uint64(next))
	c.u64(uint64(len(trs)))
	for _, tr := range trs {
		c.f64s(tr.State)
		c.f64s(tr.Action)
		c.f64(tr.Reward)
		c.f64s(tr.NextState)
		if tr.Done {
			c.u64(1)
		} else {
			c.u64(0)
		}
	}
}

// contentDigest hashes the content of every agent of c after c has been
// through Write and Read.
func contentDigest(t *testing.T, c *ckpt.Checkpoint) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	decoded, err := ckpt.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := contentHash{sha256.New()}
	for _, st := range decoded.Agents {
		h.agent(t, st)
	}
	return hex.EncodeToString(h.h.Sum(nil))
}

// TestSnapshotContentPinned pins what a checkpoint holds, not how it is
// laid out: the trainings of TestCheckpointDigestPinned and of the
// off-policy and on-policy digest pins, hashed through contentHash after a
// Write and Read. The digests were derived at checkpoint format v3 and
// hold across format changes that keep every value. amd64 only and not
// under -race, as the pins whose trainings it repeats.
func TestSnapshotContentPinned(t *testing.T) {
	one := func(st *ckpt.AgentState) *ckpt.Checkpoint {
		return &ckpt.Checkpoint{Format: ckpt.Format, Algorithm: "EdgeSlice", Agents: []*ckpt.AgentState{st}}
	}
	env := func(t *testing.T, kind string, seed int64, observeQueue bool) rl.Env {
		if kind == "target" {
			return rltest.NewTargetEnv(mathutil.NewRNG(seed), 5, 3, 20)
		}
		envCfg := netsim.DefaultExperimentConfig()
		envCfg.ObserveQueue = observeQueue
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
			e := env(t, tc.env, tc.seed, true)
			cfg := offpolicy.DefaultConfig(tc.tech)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity, cfg.Seed = 16, 16, 50, 200, tc.seed
			if tc.tech == offpolicy.DDPG {
				cfg.NoiseDecay = 0.99
			}
			a, err := offpolicy.New(e.StateDim(), e.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Train(e, 300); err != nil {
				t.Fatal(err)
			}
			st, err := a.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := contentDigest(t, one(st)); got != tc.want {
				t.Errorf("%s on %s, seed %d: content sha256 %s, pinned %s", tc.tech, tc.env, tc.seed, got, tc.want)
			}
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
			{onpolicy.VPG, "netsim", 1, "8d01888c7f004c54272b5adad0ef7346762c7cc4d42ba0521363d8117bdc5c79"},
			{onpolicy.VPG, "netsim", 2, "4d4cd92b8d380843bb0b03e647628c5c3333bebdfdc305808e193baac6c1568b"},
			{onpolicy.PPO, "target", 1, "05fb1fde9814fa87d5a61aefc847227beece99c3f894288d9d234a915562f202"},
			{onpolicy.PPO, "target", 2, "eda63d51157485d17b384991b0f80d40d43b8ed577c56ddf7dda138fa89b4f0b"},
			{onpolicy.PPO, "netsim", 1, "aa4057d79a9656f62296ce127929d93a38896110b29d7641fe9e6cb5598a4d35"},
			{onpolicy.PPO, "netsim", 2, "35072e477422f1236e97f1729dfaf11fcf6a0c9a54aa060ae9d9386585ae0f92"},
			{onpolicy.TRPO, "target", 1, "fc4355502c97679b5abb9aefc948736358aa3bd2cd00499fca2a71493101f922"},
			{onpolicy.TRPO, "target", 2, "5dc176a0f8da8279655256ca01db193b93ececfad8e9190c518a546bfe1fcb98"},
			{onpolicy.TRPO, "netsim", 1, "ddf4abfc48fca8683f68bd0f419e5ecb4183fbd4edafe587675835e7f308b9c8"},
			{onpolicy.TRPO, "netsim", 2, "3ffc45c0b542e3026de46497aa7779c597fdb1b115190fb0389f3fef18b9ce88"},
		} {
			e := env(t, tc.env, tc.seed, false)
			cfg := onpolicy.DefaultConfig(tc.tech)
			cfg.Seed = tc.seed
			a, err := onpolicy.New(e.StateDim(), e.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Train(e, 2*cfg.Horizon); err != nil {
				t.Fatal(err)
			}
			st, err := a.Snapshot(ckpt.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := contentDigest(t, one(st)); got != tc.want {
				t.Errorf("%s on %s, seed %d: content sha256 %s, pinned %s", tc.tech, tc.env, tc.seed, got, tc.want)
			}
		}
	})
}
