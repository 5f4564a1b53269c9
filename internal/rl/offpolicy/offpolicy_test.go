package offpolicy

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/rltest"
)

func TestNewValidation(t *testing.T) {
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			if _, err := New(0, 2, DefaultConfig(tech)); err == nil {
				t.Error("state dim 0 should fail")
			}
			if _, err := New(2, 0, DefaultConfig(tech)); err == nil {
				t.Error("action dim 0 should fail")
			}
			bad := DefaultConfig(tech)
			bad.BatchSize = 0
			if _, err := New(2, 2, bad); err == nil {
				t.Error("batch size 0 should fail")
			}
		})
	}
	if _, err := New(2, 2, DefaultConfig("td3")); err == nil {
		t.Error("unknown technique should fail")
	}
}

// Both the deterministic and the exploration action stay in [0,1]; past
// warm-up, so that ActExplore acts through the policy.
func TestActBounds(t *testing.T) {
	for _, tc := range []struct {
		tech                  string
		sd, ad, iters, hidden int
		seed                  int64
	}{{DDPG, 3, 2, 200, 32, 9}, {SAC, 2, 3, 100, 128, 5}} {
		t.Run(tc.tech, func(t *testing.T) {
			cfg := DefaultConfig(tc.tech)
			cfg.Hidden, cfg.WarmupSteps = tc.hidden, 0
			a, err := New(tc.sd, tc.ad, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(tc.seed)) //nolint:gosec // test
			for i := 0; i < tc.iters; i++ {
				state := make([]float64, tc.sd)
				for d := range state {
					state[d] = rng.NormFloat64()
				}
				for _, fn := range []func([]float64) []float64{a.Act, a.ActExplore} {
					for _, v := range fn(state) {
						if v < 0 || v > 1 {
							t.Fatalf("action %v out of [0,1]", v)
						}
					}
				}
			}
		})
	}
}

func TestUpdateNoopBeforeWarmup(t *testing.T) {
	for _, tech := range techniques {
		cfg := DefaultConfig(tech)
		cfg.WarmupSteps = 100
		a, err := New(2, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Observe(rl.Transition{State: []float64{0, 0}, Action: []float64{0.5}, NextState: []float64{0, 0}})
		pcg, actor := a.pcg, a.actor.FlattenParams()
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
		if a.pcg != pcg || !slices.Equal(a.actor.FlattenParams(), actor) {
			t.Errorf("%s: update should be a no-op before warmup", tech)
		}
	}
}

func TestLearnsTargetTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	for _, tc := range []struct {
		tech        string
		seed        int64
		warmup      int
		ratio       float64 // the trained loss must fall below ratio × the initial one
		beatsRandom bool
	}{{DDPG, 11, 100, 0.5, true}, {SAC, 61, 200, 0.7, false}} {
		t.Run(tc.tech, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed)) //nolint:gosec // test
			env := rltest.NewTargetEnv(rng, 2, 2, 64)
			cfg := DefaultConfig(tc.tech)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps = 32, 32, tc.warmup
			if tc.tech == DDPG {
				cfg.NoiseDecay = 0.999
			}
			agent, err := New(env.StateDim(), env.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			evalRng := rand.New(rand.NewSource(101)) //nolint:gosec // test
			before := rltest.EvalLoss(evalRng, env, agent, 200)
			if err := agent.Train(env, 3000); err != nil {
				t.Fatal(err)
			}
			after := rltest.EvalLoss(evalRng, env, agent, 200)
			if after >= before*tc.ratio {
				t.Errorf("did not learn: loss %v -> %v", before, after)
			}
			if !tc.beatsRandom {
				return
			}
			random := rltest.EvalLoss(evalRng, env, &rltest.RandomAgent{Rng: evalRng, ADim: 2}, 200)
			if after >= random {
				t.Errorf("trained agent (%v) should beat random (%v)", after, random)
			}
		})
	}
}

// A warm Update step must not allocate: the batch buffer, workspace
// matrices, layer scratch, and optimizer state are all reused.
func TestUpdateAllocFree(t *testing.T) {
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			cfg := DefaultConfig(tech)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps = 16, 8, 10
			a, err := New(3, 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13)) //nolint:gosec // test
			for i := 0; i < cfg.WarmupSteps+1; i++ {
				s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				a.Observe(rl.Transition{State: s, Action: []float64{0.5, 0.5}, Reward: -1, NextState: s})
			}
			if err := a.Update(); err != nil { // warm the workspaces
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := a.Update(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm Update allocates %v objects per step, want 0", allocs)
			}
		})
	}
}

// A warm interaction step on the slicing environment, ActExplore →
// RAEnv.Step → Observe → Update, must not allocate: the action is agent
// scratch, the state one of the env's two buffers, and the transition a
// copy into a ring row.
func TestTrainStepAllocFree(t *testing.T) {
	for _, tech := range techniques {
		t.Run(tech, func(t *testing.T) {
			env, err := netsim.New(netsim.DefaultExperimentConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(tech)
			cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.ReplayCapacity = 16, 8, 10, 20
			a, err := New(env.StateDim(), env.ActionDim(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Train(env, 2*cfg.ReplayCapacity); err != nil { // fill the ring, warm every buffer
				t.Fatal(err)
			}
			state := env.Reset()
			allocs := testing.AllocsPerRun(50, func() {
				action := a.ActExplore(state)
				next, reward, done := env.Step(action)
				a.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done})
				if err := a.Update(); err != nil {
					t.Fatal(err)
				}
				if state = next; done {
					state = env.Reset()
				}
			})
			if allocs != 0 {
				t.Errorf("warm interaction step allocates %v objects, want 0", allocs)
			}
		})
	}
}

// Observe copies: a caller that reuses its slices for the next transition,
// as the interaction loop does with the agent's action scratch and the
// env's state buffers, changes no stored transition, so neither samples
// nor a snapshot see the change.
func TestObserveCopiesTransition(t *testing.T) {
	cfg := DefaultConfig(DDPG)
	cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps = 4, 4, 3
	a, err := New(2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, act, next := make([]float64, 2), make([]float64, 1), make([]float64, 2)
	for i := range 4 {
		x := float64(i)
		s[0], s[1], act[0], next[0], next[1] = x, -x, x/10, x+1, -x-1
		a.Observe(rl.Transition{State: s, Action: act, Reward: x, NextState: next})
	}
	sample := func() []rl.Transition {
		out := make([]rl.Transition, 16)
		if err := a.replay.SampleInto(newRNG(), out); err != nil {
			t.Fatal(err)
		}
		for i, tr := range out { // detach from the ring
			out[i] = rl.Transition{State: slices.Clone(tr.State), Action: slices.Clone(tr.Action), Reward: tr.Reward, NextState: slices.Clone(tr.NextState)}
		}
		return out
	}
	beforeSamples, beforeState := sample(), a.replay.State()
	for _, tr := range beforeSamples {
		if x := tr.Reward; !slices.Equal(tr.State, []float64{x, -x}) || !slices.Equal(tr.Action, []float64{x / 10}) || !slices.Equal(tr.NextState, []float64{x + 1, -x - 1}) {
			t.Fatalf("transition %v stored as %+v", x, tr)
		}
	}
	for _, v := range [][]float64{s, act, next} {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	if !reflect.DeepEqual(sample(), beforeSamples) {
		t.Error("mutating the caller's slices after Observe changed the samples")
	}
	if !reflect.DeepEqual(a.replay.State(), beforeState) {
		t.Error("mutating the caller's slices after Observe changed the snapshot")
	}
}

// BenchmarkDDPGUpdate measures one gradient update of the paper-sized
// (2x128) actor-critic pair with batch 512. One warm-up update runs before
// the timer so the benchmark reports the steady state the training loop
// actually lives in (allocation-free with the nn workspaces).
func BenchmarkDDPGUpdate(b *testing.B) {
	cfg := DefaultConfig(DDPG)
	agent, err := New(4, 6, cfg)
	if err != nil {
		b.Fatal(err)
	}
	state := []float64{0.1, 0.2, -0.3, -0.4}
	for i := 0; i < cfg.WarmupSteps+1; i++ {
		agent.Observe(rl.Transition{
			State: state, Action: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
			Reward: -1, NextState: state,
		})
	}
	if err := agent.Update(); err != nil { // size the workspaces
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Update(); err != nil {
			b.Fatal(err)
		}
	}
}
