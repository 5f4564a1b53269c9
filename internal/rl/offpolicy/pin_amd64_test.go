//go:build amd64 && !race

package offpolicy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

// Each technique's training state after 300 small-config steps is pinned
// byte for byte across commits: the sha256 of the full snapshot JSON,
// config and replay included, which covers every network and target, the
// Adam moments, DDPG's noise schedule, the generator state and the replay
// ring (its capacity of 200 wraps mid-run). It trains on the 5×3 target
// task and on Fig. 10(b)'s training environment, at two seeds. The digests
// were computed when DDPG and SAC were separate packages and re-derived
// once when the trainer stream moved to a PCG whose state the checkpoint
// holds, so network init (actor, then each critic), the exploration, the
// critic targets, the actor gradients and the order of their draws must
// stay as they are, and each technique's config must encode as its own
// Config did. amd64 only and not under -race, as TestCheckpointDigestPinned.
func TestOffPolicyDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		tech, env string
		seed      int64
		want      string
	}{
		{DDPG, "target", 1, "b542db50330ccded2b744850dd7f1d978f1b38d8a3f6453c4872905fd4b1a7ab"},
		{DDPG, "target", 2, "a26308005583d3dfaa52e933f78c748436565bbb796aeae1a48587b32892d640"},
		{DDPG, "netsim", 1, "f4ccc89d9fc21a6a26abcfb8374f451e8132b031e43522b1eeadd0403b9e2d68"},
		{DDPG, "netsim", 2, "42eedbb52184e5dadb8f7062bb1084f74a6d32f9ce8dafb3cfa2b94260ee7022"},
		{SAC, "target", 1, "5c16366473a5ec951f1509e70a978f2d39a7ad077d935b41e7c59aefa497d375"},
		{SAC, "target", 2, "0703467575809dd857eac3e7173792fe438cbf106507500cac0211a7f0debbf7"},
		{SAC, "netsim", 1, "27b061a8855da2b4693c15d2afaed4499ece4d4886a47710c29bb133bb8f4002"},
		{SAC, "netsim", 2, "7a2326bd71fb50fe241d6811856330ba6ab9bd652fc3aa455fb164f335c9c63e"},
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
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s on %s, seed %d: snapshot sha256 %s (%d B), pinned %s", tc.tech, tc.env, tc.seed, got, len(b), tc.want)
		}
	}
}
