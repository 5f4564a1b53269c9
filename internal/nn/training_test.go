package nn_test

import (
	"bytes"
	"math/rand"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
	"edgeslice/internal/rl/rltest"
)

type trainer interface {
	Train(env rl.Env, steps int) error
	Snapshot(ckpt.SnapshotOptions) (*ckpt.AgentState, error)
}

// Every trainer goes through Dense, so each must end a short training in
// the same state — networks, optimizer moments, RNG cursor, replay — on the
// AVX tiles, with and without the AVX-512 tile over them, as on the scalar
// loops. Widths are picked off the kernels' block sizes: hidden 40 is a
// full 32-column block plus a tail (two 16-column panels plus a tail on
// AVX-512), the 5+3 critic input a lone tail, the heads (1 and 3 wide)
// narrow tiles; each trainer runs at its round batch size and at one two
// rows short of it, which leaves the forward product a row tail.
func TestTrainingBitIdenticalAcrossKernels(t *testing.T) {
	if !nn.SetKernels(t, true, false) {
		t.Skip("no AVX kernels on this host")
	}
	const sdim, adim, hidden = 5, 3, 40
	for _, tc := range []struct {
		name  string
		steps int
		new   func(short int) (trainer, error)
	}{
		{"ddpg", 300, func(short int) (trainer, error) {
			cfg := offpolicy.DefaultConfig(offpolicy.DDPG)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps = hidden, 32-short, 50
			return offpolicy.New(sdim, adim, cfg)
		}},
		{"sac", 200, func(short int) (trainer, error) {
			cfg := offpolicy.DefaultConfig(offpolicy.SAC)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps = hidden, 16-short, 50
			return offpolicy.New(sdim, adim, cfg)
		}},
		{"ppo", 256, func(short int) (trainer, error) {
			cfg := onpolicy.DefaultConfig(onpolicy.PPO)
			cfg.Hidden, cfg.Horizon, cfg.MinibatchSz, cfg.Epochs, cfg.ValueEpochs = hidden, 64-short, 16-short, 2, 3
			return onpolicy.New(sdim, adim, cfg)
		}},
		{"trpo", 256, func(short int) (trainer, error) {
			cfg := onpolicy.DefaultConfig(onpolicy.TRPO)
			cfg.Hidden, cfg.Horizon, cfg.FisherSamples, cfg.ValueEpochs = hidden, 64-short, 16-short, 3
			return onpolicy.New(sdim, adim, cfg)
		}},
		{"vpg", 256, func(short int) (trainer, error) {
			cfg := onpolicy.DefaultConfig(onpolicy.VPG)
			cfg.Hidden, cfg.Horizon, cfg.ValueEpochs = hidden, 64-short, 3
			return onpolicy.New(sdim, adim, cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trained := func(short int, avx, avx512 bool) []byte {
				nn.SetKernels(t, avx, avx512)
				a, err := tc.new(short)
				if err != nil {
					t.Fatal(err)
				}
				env := rltest.NewTargetEnv(rand.New(rand.NewSource(7)), sdim, adim, 20) //nolint:gosec // test determinism
				if err := a.Train(env, tc.steps); err != nil {
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
				return buf.Bytes()
			}
			for _, short := range []int{0, 2} {
				scalar := trained(short, false, false)
				for _, avx512 := range []bool{false, true} {
					if avx512 && !nn.SetKernels(t, true, true) {
						continue // no AVX-512 tile on this host
					}
					if avx := trained(short, true, avx512); !bytes.Equal(scalar, avx) {
						t.Errorf("batch %d rows short: snapshot after %d steps differs between scalar (%d B) and AVX (avx512=%v, %d B) kernels",
							short, tc.steps, len(scalar), avx512, len(avx))
					}
				}
			}
		})
	}
}
