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
// the generator state. It trains on the 5×3 target task and on Fig. 10(b)'s
// training environment, at two seeds. The digests were computed before the
// three trainers shared this package and re-derived once when the trainer
// stream moved to a PCG whose state the checkpoint holds, so the rollout,
// value fit, advantage and policy steps, and the order of their draws
// (policy init, value init, rollout samples, PPO's shuffles, TRPO's Fisher
// subsample), must stay as they are. amd64 only and not under -race, as
// TestCheckpointDigestPinned.
func TestOnPolicyDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		tech, env string
		seed      int64
		want      string
	}{
		{VPG, "target", 1, "53d5da414e170245fe09ed1c35f02f108fe17ab60a83402fbc384cadb6c1661f"},
		{VPG, "target", 2, "9109decba5aa9b6d1a500f237236cfeda53ce4d86078aef07543e9404ae35da2"},
		{VPG, "netsim", 1, "2a758b83aff44f02f82449cd3351ac337bb5fd20182f4ebb7e134df154495ca7"},
		{VPG, "netsim", 2, "0d530b4e60c281deb7e6fec75a4f3c1e5f02aea994aff7182a5f5f976996f224"},
		{PPO, "target", 1, "443e461ea612cbeb4a1634351264d28bdba4fd1c5ab2f7a952c76a9b63eeff8c"},
		{PPO, "target", 2, "6829ed68ba1a73022634d0508a9ce5129a064b4892d28483b1b3aff83ed64aab"},
		{PPO, "netsim", 1, "6de8c23226296ecf7f485252c3510eb5d4eaabfb61d5d52c4397b98eeaac86f9"},
		{PPO, "netsim", 2, "d1096bd52bbd7174fda3af47af1108db6983ce28c52348e825dd20cdc6c11e79"},
		{TRPO, "target", 1, "fee07634b4ae5de32bf793a30cba450f6654d189f7d252ce4ba75e7555e1eaee"},
		{TRPO, "target", 2, "35e7039a6404687705d8c0848a6a74f1a84349a3626a54e374dadf35729cc0d5"},
		{TRPO, "netsim", 1, "447d4465c16d911acc1a2da16be852fcab943274c08583696caf936ad347498c"},
		{TRPO, "netsim", 2, "ddaa7d6a1fa46445a196521a32ae91a41955e4dc371379054c1b658c8159fda4"},
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
