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
// Adam moments, DDPG's noise schedule and update count, the RNG cursor and
// the replay ring (its capacity of 200 wraps mid-run). It trains on the
// 5×3 target task and on Fig. 10(b)'s training environment, at two seeds.
// The digests were computed when DDPG and SAC were separate packages, so
// network init (actor, then each critic), the exploration, the critic
// targets, the actor gradients and the order of their RNG draws must stay
// as they were, and each technique's config must encode as its own Config
// did. amd64 only and not under -race, as TestCheckpointDigestPinned.
func TestOffPolicyDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		tech, env string
		seed      int64
		want      string
	}{
		{DDPG, "target", 1, "22b340cff60cf6327135299be1f80b53918399b7e20ba7a463d480298bcdf4ae"},
		{DDPG, "target", 2, "c1d45bc871f166ec59eea52322b8e5023fcfa3a89ad605fad6da5fdb18981d98"},
		{DDPG, "netsim", 1, "ed5ce3ee9c44a78994ba21f4bdc061c4d5aa82d19336c319633c35f476ad5a56"},
		{DDPG, "netsim", 2, "48bdf6bc177b0f0797c53794ff8c2f8d9574208a8be2c6ed685ebc7a19ff34ba"},
		{SAC, "target", 1, "b17a44adda432005136960795f8dba54a6dd33d0e5eb1502dbb3ad5df522b7de"},
		{SAC, "target", 2, "85b8c7bfa6fb5ce6c974b5140f3e5304f271126a80534bdbe4034b8d96629664"},
		{SAC, "netsim", 1, "674e166663bb8bf7bd5ea858653289ee4840f2fa46cd86dc032a771e66d47ab1"},
		{SAC, "netsim", 2, "d1cb86b0f7183a35b7058e86941db88af20bb51ae6f9964bda5b2ee5811d446c"},
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
