//go:build amd64 && !race

package offpolicy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

// Each technique's training state after 300 small-config steps is pinned
// byte for byte across commits: the sha256 of the checkpoint file of the
// full snapshot, config and replay included, which covers every network and target, the
// Adam moments, DDPG's noise schedule, the generator state and the replay
// ring (its capacity of 200 wraps mid-run). It trains on the 5×3 target
// task and on Fig. 10(b)'s training environment, at two seeds. The digests
// were computed when DDPG and SAC were separate packages, re-derived once
// when the trainer stream moved to a PCG whose state the checkpoint holds
// and once for checkpoint format v4 (TestSnapshotContentPinned holds the
// content across that move), so network init (actor, then each critic), the exploration, the
// critic targets, the actor gradients and the order of their draws must
// stay as they are, and each technique's config must encode as its own
// Config did. amd64 only and not under -race, as TestCheckpointDigestPinned.
func TestOffPolicyDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		tech, env string
		seed      int64
		want      string
	}{
		{DDPG, "target", 1, "8ae0b37fdef228b79f85c3e7e0adce84dd38b42dbc05f0e8d54a508935a6e09b"},
		{DDPG, "target", 2, "c55d93a7f0e078b81ca0a34e2170d809d1a8b7c36e14f5b0adc32700556f536b"},
		{DDPG, "netsim", 1, "095ce80d07841124366757f67ace5d5103246dcbe4252f2abfd5076e864d809f"},
		{DDPG, "netsim", 2, "c483748e8c97de02efd679d38967c3b9aa92f12174f619fecb9eedd24b761f11"},
		{SAC, "target", 1, "5b8a7422040de1faa522a0653a00b84c3f27ebd52bd2aef83c720892259b0315"},
		{SAC, "target", 2, "88509a2cc41a79e59da963fd897d4867f2c9ae507d4e194ce13c1c6796963800"},
		{SAC, "netsim", 1, "bb31ae8318f7670f3d4a3a2f461dc9c41a99a21330bdf269c418212fa9805585"},
		{SAC, "netsim", 2, "3cd1faa9660c643f510a2e6842ca1d2593dbc500063caaaa13e301c926886ae5"},
	} {
		var env rl.Env = rltest.NewTargetEnv(mathutil.NewRNG(tc.seed), 5, 3, 20)
		if tc.env == "netsim" {
			envCfg := netsim.DefaultExperimentConfig() // as experiments' Fig. 10(b) trains
			envCfg.ObserveQueue = true
			envCfg.TrainCoordRandom = true
			envCfg.Seed = tc.seed + 104729
			var err error
			if env, err = netsim.New(envCfg); err != nil {
				t.Fatal(err)
			}
		}
		cfg := DefaultConfig(tc.tech)
		cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity, cfg.Seed = 16, 16, 50, 200, tc.seed
		if tc.tech == DDPG {
			cfg.NoiseDecay = 0.99
		}
		a, err := New(env.StateDim(), env.ActionDim(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Train(env, 300); err != nil {
			t.Fatal(err)
		}
		st, err := a.Snapshot(ckpt.SnapshotOptions{IncludeReplay: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, &ckpt.Checkpoint{Format: ckpt.Format, Agents: []*ckpt.AgentState{st}}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s on %s, seed %d: snapshot sha256 %s (%d B), pinned %s", tc.tech, tc.env, tc.seed, got, len(b), tc.want)
		}
	}
}
