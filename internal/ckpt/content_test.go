package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"maps"
	"math"
	"os"
	"slices"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
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
func (c contentHash) bool(v bool) {
	if v {
		c.u64(1)
	} else {
		c.u64(0)
	}
}
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
		m := opt.StateFor(n)
		c.bool(m != nil)
		if m != nil {
			c.u64(uint64(m.T))
			for i := range m.M {
				c.f64s(m.M[i])
				c.f64s(m.V[i])
			}
		}
	}
	c.bool(st.Replay != nil)
	if st.Replay == nil {
		return
	}
	rows, err := st.Replay.Rows(st.StateDim, st.ActionDim)
	if err != nil {
		t.Fatal(err)
	}
	sd, ad := st.StateDim, st.ActionDim
	w := 2*sd + ad + 2
	c.u64(uint64(st.Replay.Capacity))
	c.u64(uint64(st.Replay.Next))
	c.u64(uint64(len(rows) / w))
	for ; len(rows) > 0; rows = rows[w:] {
		c.f64s(rows[:sd])           // state
		c.f64s(rows[sd : sd+ad])    // action
		c.f64(rows[sd+ad])          // reward
		c.f64s(rows[sd+ad+1 : w-1]) // next state
		c.bool(rows[w-1] == 1)      // done
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

const goldenPath = "testdata/v4-golden.ckpt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from goldenCheckpoint")

// goldenCheckpoint is what goldenPath holds: a DDPG agent with its replay
// ring (noise std, a done transition, a wrapped cursor) and a PPO agent
// with its log-stds, each briefly trained on a 2×1 target task, under
// every provenance field. Both have nets, Adam moments, a config and a
// generator state.
func goldenCheckpoint(t *testing.T) *ckpt.Checkpoint {
	t.Helper()
	ddpg := offpolicy.DefaultConfig(offpolicy.DDPG)
	ddpg.Hidden, ddpg.BatchSize, ddpg.WarmupSteps, ddpg.ReplayCapacity, ddpg.NoiseDecay = 2, 2, 4, 4, 0.9
	d, err := offpolicy.New(2, 1, ddpg)
	if err != nil {
		t.Fatal(err)
	}
	ppo := onpolicy.DefaultConfig(onpolicy.PPO)
	ppo.Hidden, ppo.Horizon, ppo.MinibatchSz, ppo.Epochs, ppo.ValueEpochs = 2, 4, 2, 1, 1
	p, err := onpolicy.New(2, 1, ppo)
	if err != nil {
		t.Fatal(err)
	}
	c := &ckpt.Checkpoint{Format: ckpt.Format, Algorithm: "EdgeSlice", ConfigHash: "0123456789abcdef0123", Seed: 7, TrainSteps: 6}
	for _, a := range []trainable{d, p} {
		if err := a.Train(rltest.NewTargetEnv(mathutil.NewRNG(1), 2, 1, 3), 6); err != nil {
			t.Fatal(err)
		}
		st, err := a.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
		if err != nil {
			t.Fatal(err)
		}
		c.Agents = append(c.Agents, st)
	}
	return c
}

// goldenFile reads goldenPath, a v4 file that no build of this format
// may read differently.
func goldenFile(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointGoldenFile pins the format: the committed goldenPath must
// decode, write back byte for byte, and hash (header provenance, then
// contentHash of each agent) to the digest below. goldenPath was written
// by `go test ./internal/ckpt -run GoldenFile -update-golden` on amd64; a
// format change rewrites it that way and must leave the digest as it is,
// since it hashes decoded values, not bytes. A layout change that Write and
// Decode make together (payload roles in another order, say) round-trips
// byte for byte and is caught by the digest alone.
func TestCheckpointGoldenFile(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, goldenCheckpoint(t)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data := goldenFile(t)
	c, err := ckpt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("Decode then Write changed the %d-byte golden file", len(data))
	}
	h := contentHash{sha256.New()}
	h.bytes(fmt.Appendf(nil, "%q %v %q %d %d", c.Algorithm, c.Shared, c.ConfigHash, c.Seed, c.TrainSteps))
	for _, st := range c.Agents {
		h.agent(t, st)
	}
	const want = "e9df8b4d67dfb2d6518272a2cd56ab55f2169b3966f7afc37b58506068e38d75"
	if got := hex.EncodeToString(h.h.Sum(nil)); got != want {
		t.Errorf("golden file content sha256 %s, pinned %s", got, want)
	}
}
