//go:build amd64 && !race

package onpolicy

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

// Each technique's training state after two default horizons is pinned
// byte for byte across commits: the sha256 of the snapshot JSON without its
// config, which covers both networks, the Adam moments, the log-stds and
// the RNG cursor. It trains on the 5×3 target task and on Fig. 10(b)'s
// training environment, at two seeds. The digests were computed before the
// three trainers shared this package, so the rollout, value fit, advantage
// and policy steps, and the order of their RNG draws (policy init, value
// init, rollout samples, PPO's shuffles, TRPO's Fisher subsample), must
// stay as they were. amd64 only and not under -race, as
// TestCheckpointDigestPinned.
func TestOnPolicyDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		tech, env string
		seed      int64
		want      string
	}{
		{VPG, "target", 1, "74c90c95b5532d2c42a87b45230fd5c49e1a19941fe7d2dcb2f9ef845a907392"},
		{VPG, "target", 2, "384d5934962fee291ed1383429a85744d48335ce4c809c7521e042c3a49d19b6"},
		{VPG, "netsim", 1, "c65d3bd16ffa175f4d680269265515a1a6d859f3aa3caba5464f58119b30fd6a"},
		{VPG, "netsim", 2, "1b72e1d96d32078ca872d3fb2d9100b62c977b3a0a60c7e2b1a8ccc2d5a89b50"},
		{PPO, "target", 1, "4377e10dfc226df8f2ace158a784300568ae250979898fb50d3bb9ef76af43bb"},
		{PPO, "target", 2, "77cf21c74d17c5a0ada83e48afb19e3dfa43e75f28015cf777d12345dcaade32"},
		{PPO, "netsim", 1, "139e2ba80a64b061f2586d14eb809f538c64a2ba2d69d36dd09c4f6e45a34955"},
		{PPO, "netsim", 2, "16be5f5c33ed521d82e8963b2b174a9acf959391322b4994e7b372eb20b4db50"},
		{TRPO, "target", 1, "b9915b1d7a4cf5a78681cdd05c7c1fc0d6d698ecb79afae96db91fa6f29f3d79"},
		{TRPO, "target", 2, "4cd7a6a0baa220d4e66ee2ef25f5e7c3ba278cefd239281a3469418a59cae41d"},
		{TRPO, "netsim", 1, "e873708748b452a9dbee661f8990760b309ccc25d9a43cbfc78d3c9a1a3b4b34"},
		{TRPO, "netsim", 2, "8fef48b3eaf3df58de8ad078e95b249fa635f9162d94754d35e4d0a97ca6a034"},
	} {
		var env rl.Env = rltest.NewTargetEnv(mathutil.NewRNG(tc.seed), 5, 3, 20)
		if tc.env == "netsim" {
			envCfg := netsim.DefaultExperimentConfig() // as experiments' Fig. 10(b) trains
			envCfg.TrainCoordRandom = true
			envCfg.Seed = tc.seed + 104729
			var err error
			if env, err = netsim.New(envCfg); err != nil {
				t.Fatal(err)
			}
		}
		cfg := DefaultConfig(tc.tech)
		cfg.Seed = tc.seed
		a, err := New(env.StateDim(), env.ActionDim(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Train(env, 2*cfg.Horizon); err != nil {
			t.Fatal(err)
		}
		st, err := a.Snapshot(ckpt.SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st.Config = nil
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
