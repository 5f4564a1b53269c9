//go:build amd64 && !race

package onpolicy

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

// Each technique's training state after two default horizons is pinned
// byte for byte across commits: the sha256 of the checkpoint file of the
// snapshot without its config, which covers both networks, the Adam moments, the log-stds and
// the generator state. It trains on the 5×3 target task and on Fig. 10(b)'s
// training environment, at two seeds. The digests were computed before the
// three trainers shared this package, re-derived once when the trainer
// stream moved to a PCG whose state the checkpoint holds and once for
// checkpoint format v4 (TestSnapshotContentPinned holds the content across
// that move), so the rollout,
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
		{VPG, "target", 1, "b286a455478a9e0aea22615c7da1cf656e8dcc99903bf1b95b0924e03d0cbc80"},
		{VPG, "target", 2, "6d22a4d6b7983baef3adb3ba0a4f8e5ad027abd215bb5de85b2076df55db68a4"},
		{VPG, "netsim", 1, "4e2a315575b7c140382e614aa7fc4164827bdf4f7071dc197eadcc3a31150bfe"},
		{VPG, "netsim", 2, "2be9e90d01326ae61b78d2918f465a260df25ebbeb9e69a027280e4a7555d85b"},
		{PPO, "target", 1, "b08e0b7b1c69c0956efd2a8b69fb19b5bb3e56a0ab8fad913baa706887b49ed7"},
		{PPO, "target", 2, "41af9b082568631c4f1a29e87d716043b697b17f1b70e7102d7c3851cb0a7ce5"},
		{PPO, "netsim", 1, "d4734db3901b83c4891eefca18f1730bb4fdf02cc12f9840f4819fb4fd19502c"},
		{PPO, "netsim", 2, "197323cc9926737809a8fe512114ad3d30cce6d048eb5a3794673304b063071e"},
		{TRPO, "target", 1, "22e3cadb6eab7982c9a56181998ff2c0604b0e6446374a728b3eca6a36c44ea3"},
		{TRPO, "target", 2, "c3ae2ae19e671057c18f9e72d8e6d0abaa2995c5acf69c4221ce023d31a30937"},
		{TRPO, "netsim", 1, "e00eff0686d3243b6867730be8213bc139e1c686f8fa5635ce39331fc7f26e6a"},
		{TRPO, "netsim", 2, "c7ee168de7839b2a95fa4e00c9ac7f576ff23581174ef63fccc524e5223943f9"},
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
