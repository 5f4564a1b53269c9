// Package ddpg implements Deep Deterministic Policy Gradient (Lillicrap et
// al., 2015), the training technique the paper uses for its orchestration
// agents (Sec. IV-B.2, Fig. 3): an actor network µ(s|θµ), a critic network
// π(s,a|θπ) (the paper's notation), their target copies with soft updates,
// and uniform experience replay.
package ddpg

import (
	"fmt"
	"math/rand"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Config holds DDPG hyper-parameters. Defaults mirror Sec. VI-A of the
// paper: 2 hidden layers of 128 Leaky-ReLU neurons, sigmoid output, both
// learning rates 1e-3, batch 512, γ = 0.99, decaying N(0,1) noise.
type Config struct {
	Hidden         int     // neurons per hidden layer
	ActorLR        float64 // actor learning rate
	CriticLR       float64 // critic learning rate
	Gamma          float64 // discount factor
	Tau            float64 // soft target update coefficient
	BatchSize      int
	ReplayCapacity int
	WarmupSteps    int // steps of pure exploration before updates start
	NoiseStd       float64
	NoiseDecay     float64
	NoiseMin       float64
	Seed           int64
}

// DefaultConfig returns the paper's hyper-parameters. BatchSize is the
// paper's 512; callers running CI-speed experiments may lower it.
func DefaultConfig() Config {
	return Config{
		Hidden:         128,
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		Gamma:          0.99,
		Tau:            5e-3,
		BatchSize:      512,
		ReplayCapacity: 100_000,
		WarmupSteps:    500,
		NoiseStd:       1.0,
		NoiseDecay:     0.9999,
		NoiseMin:       0.01,
		Seed:           1,
	}
}

// Agent is a DDPG learner and, once trained, a deterministic policy.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: the actor, µ(s)

	cfg Config
	rng *rand.Rand
	src *mathutil.CountingSource // rng's backing source; checkpointed as a cursor

	actor        *nn.Network
	critic       *nn.Network
	actorTarget  *nn.Network
	criticTarget *nn.Network

	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	replay *rl.ReplayBuffer
	noise  *rl.GaussianNoise

	stateDim, actionDim int
	updates             int

	// Update-step scratch, reused across steps so a warm update allocates
	// nothing: the sampled batch and the workspace all batch matrices are
	// drawn from.
	batch []rl.Transition
	ws    nn.Workspace
}

var _ rl.Agent = (*Agent)(nil)

// check reports whether an agent of these dimensions can train under cfg;
// New and Restore both apply it.
func (cfg Config) check(stateDim, actionDim int) error {
	if stateDim <= 0 || actionDim <= 0 {
		return fmt.Errorf("ddpg: invalid dimensions state=%d action=%d", stateDim, actionDim)
	}
	if cfg.Hidden <= 0 || cfg.BatchSize <= 0 || cfg.ReplayCapacity <= 0 {
		return fmt.Errorf("ddpg: invalid config %+v", cfg)
	}
	return nil
}

// New creates a DDPG agent for the given state/action dimensions.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if err := cfg.check(stateDim, actionDim); err != nil {
		return nil, err
	}
	rng, src := mathutil.NewCountingRNG(cfg.Seed)
	actor := nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: actionDim, Act: nn.ActSigmoid},
	)
	// Shrink the output layer's initial weights so the starting policy sits
	// near the sigmoid's linear region (outputs ≈ 0.5) instead of a
	// saturated corner where gradients vanish.
	out := actor.Layers[len(actor.Layers)-1]
	for i := range out.W.Data {
		out.W.Data[i] *= 0.1
	}
	critic := nn.NewMLP(rng, stateDim+actionDim,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 1, Act: nn.ActIdentity},
	)
	a := &Agent{
		DeployedPolicy: rl.NewDeployedPolicy(actor, false),
		cfg:            cfg,
		rng:            rng,
		src:            src,
		actor:          actor,
		critic:         critic,
		actorTarget:    actor.Clone(),
		criticTarget:   critic.Clone(),
		actorOpt:       nn.NewAdam(cfg.ActorLR),
		criticOpt:      nn.NewAdam(cfg.CriticLR),
		replay:         rl.NewReplayBuffer(cfg.ReplayCapacity),
		noise:          &rl.GaussianNoise{Std: cfg.NoiseStd, Decay: cfg.NoiseDecay, Min: cfg.NoiseMin},
		stateDim:       stateDim,
		actionDim:      actionDim,
	}
	return a, nil
}

// ActExplore returns the exploration action: uniform-random during warmup
// (so the replay buffer sees the whole action box, including the jointly
// positive allocations a corner-saturated policy would never visit), then
// µ(s) plus decaying Gaussian noise, clamped to [0,1].
func (a *Agent) ActExplore(state []float64) []float64 {
	if a.replay.Len() < a.cfg.WarmupSteps {
		act := make([]float64, a.actionDim)
		for i := range act {
			act[i] = a.rng.Float64()
		}
		return act
	}
	act := a.actor.Forward1(state)
	noise := a.noise.Sample(a.rng, a.actionDim)
	for i := range act {
		act[i] += noise[i]
		if act[i] < 0 {
			act[i] = 0
		}
		if act[i] > 1 {
			act[i] = 1
		}
	}
	return act
}

// Observe stores a transition in replay memory.
func (a *Agent) Observe(t rl.Transition) { a.replay.Add(t) }

// Update performs one gradient update of critic and actor plus soft target
// updates. It is a no-op until the replay buffer holds WarmupSteps
// transitions. All batch matrices are drawn from the agent's workspace, so
// a warm update step is allocation-free.
func (a *Agent) Update() error {
	if a.replay.Len() < a.cfg.WarmupSteps || a.replay.Len() < 2 {
		return nil
	}
	if cap(a.batch) < a.cfg.BatchSize {
		a.batch = make([]rl.Transition, a.cfg.BatchSize)
	}
	batch := a.batch[:a.cfg.BatchSize]
	if err := a.replay.SampleInto(a.rng, batch); err != nil {
		return fmt.Errorf("ddpg: %w", err)
	}
	n := len(batch)
	a.ws.Reset()

	// ---- Critic update: minimize MSBE (Eq. 16/17). ----
	nextStates := a.ws.Next(n, a.stateDim)
	for i, tr := range batch {
		copy(nextStates.Row(i), tr.NextState)
	}
	nextActions := a.actorTarget.ForwardBatch(nextStates, &a.ws)
	targetIn := a.ws.Next(n, a.stateDim+a.actionDim)
	for i, tr := range batch {
		row := targetIn.Row(i)
		copy(row, tr.NextState)
		copy(row[a.stateDim:], nextActions.Row(i))
	}
	targetQ := a.criticTarget.ForwardBatch(targetIn, &a.ws)
	targets := a.ws.Floats(n)
	for i, tr := range batch {
		g := tr.Reward
		if !tr.Done {
			g += a.cfg.Gamma * targetQ.At(i, 0)
		}
		targets[i] = g
	}

	criticIn := a.ws.Next(n, a.stateDim+a.actionDim)
	for i, tr := range batch {
		row := criticIn.Row(i)
		copy(row, tr.State)
		copy(row[a.stateDim:], tr.Action)
	}
	q := a.critic.Forward(criticIn)
	grad := a.ws.Next(n, 1)
	for i := range targets {
		grad.Set(i, 0, (q.At(i, 0)-targets[i])/float64(n))
	}
	a.critic.ZeroGrad()
	a.critic.BackwardParams(grad)
	a.criticOpt.Step(a.critic)

	// ---- Actor update: deterministic policy gradient (Eq. 18). ----
	states := a.ws.Next(n, a.stateDim)
	for i, tr := range batch {
		copy(states.Row(i), tr.State)
	}
	actions := a.actor.Forward(states)
	actIn := a.ws.Next(n, a.stateDim+a.actionDim)
	for i := range batch {
		row := actIn.Row(i)
		copy(row, states.Row(i))
		copy(row[a.stateDim:], actions.Row(i))
	}
	qa := a.critic.Forward(actIn)
	ones := a.ws.Next(qa.Rows, 1)
	for i := 0; i < qa.Rows; i++ {
		// Maximize mean Q: upstream gradient 1/n; optimizer minimizes, so
		// negate when passing into the actor below.
		ones.Set(i, 0, 1.0/float64(n))
	}
	dIn := a.critic.BackwardInput(ones) // input grads only, not critic param grads

	dAction := a.ws.Next(n, a.actionDim)
	for i := 0; i < n; i++ {
		src := dIn.Row(i)[a.stateDim:]
		dst := dAction.Row(i)
		for k := range dst {
			dst[k] = -src[k] // ascend Q
		}
	}
	a.actor.ZeroGrad()
	a.actor.BackwardParams(dAction)
	a.actorOpt.Step(a.actor)

	// ---- Soft target updates (Fig. 3). ----
	a.actorTarget.SoftUpdate(a.actor, a.cfg.Tau)
	a.criticTarget.SoftUpdate(a.critic, a.cfg.Tau)
	a.updates++
	return nil
}

// Train runs the standard DDPG interaction loop against env for the given
// number of environment steps, updating after every step once warm.
func (a *Agent) Train(env rl.Env, steps int) error {
	state := env.Reset()
	for i := 0; i < steps; i++ {
		action := a.ActExplore(state)
		next, reward, done := env.Step(action)
		a.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done})
		if err := a.Update(); err != nil {
			return err
		}
		if done {
			state = env.Reset()
		} else {
			state = next
		}
	}
	return nil
}

// Actor exposes the actor network for serialization.
func (a *Agent) Actor() *nn.Network { return a.actor }
