// Package td3 implements Twin Delayed Deep Deterministic policy gradient
// (Fujimoto et al., 2018), the direct successor of the DDPG algorithm the
// paper trains its agents with. It is provided as an extension beyond the
// paper's Fig. 10(b) comparison set: twin critics with clipped double-Q
// targets, target-policy smoothing, and delayed actor updates address
// DDPG's overestimation bias with the same interaction interface.
package td3

import (
	"fmt"
	"math"
	"math/rand"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Config holds TD3 hyper-parameters.
type Config struct {
	Hidden         int
	ActorLR        float64
	CriticLR       float64
	Gamma          float64
	Tau            float64
	BatchSize      int
	ReplayCapacity int
	WarmupSteps    int
	PolicyDelay    int     // actor updates once per this many critic updates
	TargetNoise    float64 // target-policy smoothing noise std
	TargetClip     float64 // smoothing noise clip
	NoiseStd       float64 // exploration noise
	NoiseDecay     float64
	NoiseMin       float64
	Seed           int64
}

// DefaultConfig returns standard TD3 defaults aligned with the repository's
// CI-scale DDPG settings.
func DefaultConfig() Config {
	return Config{
		Hidden:         32,
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		Gamma:          0.99,
		Tau:            5e-3,
		BatchSize:      64,
		ReplayCapacity: 100_000,
		WarmupSteps:    300,
		PolicyDelay:    2,
		TargetNoise:    0.1,
		TargetClip:     0.3,
		NoiseStd:       1.0,
		NoiseDecay:     0.9995,
		NoiseMin:       0.01,
		Seed:           1,
	}
}

// Agent is a TD3 learner.
type Agent struct {
	cfg Config
	rng *rand.Rand
	src *mathutil.CountingSource // rng's backing source; checkpointed as a cursor

	actor, actorT  *nn.Network
	q1, q2         *nn.Network
	q1T, q2T       *nn.Network
	actorOpt       *nn.Adam
	q1Opt, q2Opt   *nn.Adam
	replay         *rl.ReplayBuffer
	noise          *rl.GaussianNoise
	stateDim, aDim int
	updates        int

	// Update-step scratch reused across steps (see ddpg.Agent).
	batch []rl.Transition
	ws    nn.Workspace
}

var _ rl.Agent = (*Agent)(nil)

// New creates a TD3 agent.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if stateDim <= 0 || actionDim <= 0 || cfg.Hidden <= 0 || cfg.BatchSize <= 0 || cfg.PolicyDelay <= 0 {
		return nil, fmt.Errorf("td3: invalid config state=%d action=%d %+v", stateDim, actionDim, cfg)
	}
	rng, src := mathutil.NewCountingRNG(cfg.Seed)
	actor := nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: actionDim, Act: nn.ActSigmoid},
	)
	out := actor.Layers[len(actor.Layers)-1]
	for i := range out.W.Data {
		out.W.Data[i] *= 0.1 // start near the sigmoid's linear region
	}
	newQ := func() *nn.Network {
		return nn.NewMLP(rng, stateDim+actionDim,
			nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: 1, Act: nn.ActIdentity},
		)
	}
	q1, q2 := newQ(), newQ()
	return &Agent{
		cfg:      cfg,
		rng:      rng,
		src:      src,
		actor:    actor,
		actorT:   actor.Clone(),
		q1:       q1,
		q2:       q2,
		q1T:      q1.Clone(),
		q2T:      q2.Clone(),
		actorOpt: nn.NewAdam(cfg.ActorLR),
		q1Opt:    nn.NewAdam(cfg.CriticLR),
		q2Opt:    nn.NewAdam(cfg.CriticLR),
		replay:   rl.NewReplayBuffer(cfg.ReplayCapacity),
		noise:    &rl.GaussianNoise{Std: cfg.NoiseStd, Decay: cfg.NoiseDecay, Min: cfg.NoiseMin},
		stateDim: stateDim,
		aDim:     actionDim,
	}, nil
}

// Act implements rl.Agent.
func (a *Agent) Act(state []float64) []float64 { return a.actor.Forward1(state) }

// ActBatch implements rl.BatchActor: one wide actor forward evaluates every
// row of states, bit-identical per row to Act.
//
//edgeslice:noalloc
func (a *Agent) ActBatch(states *nn.Matrix, ws *nn.Workspace) *nn.Matrix {
	return a.actor.ForwardBatch(states, ws)
}

// ActExplore returns an exploration action (uniform during warmup).
func (a *Agent) ActExplore(state []float64) []float64 {
	if a.replay.Len() < a.cfg.WarmupSteps {
		act := make([]float64, a.aDim)
		for i := range act {
			act[i] = a.rng.Float64()
		}
		return act
	}
	act := a.actor.Forward1(state)
	n := a.noise.Sample(a.rng, a.aDim)
	for i := range act {
		act[i] = clamp01(act[i] + n[i])
	}
	return act
}

// Observe stores a transition.
func (a *Agent) Observe(t rl.Transition) { a.replay.Add(t) }

// Update performs one TD3 update: both critics every call, the actor and
// targets every PolicyDelay calls. Batch matrices come from the agent's
// workspace, so a warm update step is allocation-free.
func (a *Agent) Update() error {
	if a.replay.Len() < a.cfg.WarmupSteps || a.replay.Len() < 2 {
		return nil
	}
	if cap(a.batch) < a.cfg.BatchSize {
		a.batch = make([]rl.Transition, a.cfg.BatchSize)
	}
	batch := a.batch[:a.cfg.BatchSize]
	if err := a.replay.SampleInto(a.rng, batch); err != nil {
		return fmt.Errorf("td3: %w", err)
	}
	n := len(batch)
	a.ws.Reset()

	// Targets with clipped double-Q and target-policy smoothing, computed
	// batched: one target-actor forward, per-row smoothing noise (drawn in
	// row order, skipping done rows, to keep the RNG stream identical to
	// the per-sample formulation), then one forward per target critic.
	nextIn := a.ws.Next(n, a.stateDim)
	for i, tr := range batch {
		copy(nextIn.Row(i), tr.NextState)
	}
	na := a.actorT.ForwardBatch(nextIn, &a.ws)
	tIn := a.ws.Next(n, a.stateDim+a.aDim)
	for i, tr := range batch {
		row := tIn.Row(i)
		copy(row, tr.NextState)
		act := row[a.stateDim:]
		copy(act, na.Row(i))
		if tr.Done {
			continue
		}
		for d := range act {
			eps := a.rng.NormFloat64() * a.cfg.TargetNoise
			eps = math.Max(-a.cfg.TargetClip, math.Min(a.cfg.TargetClip, eps))
			act[d] = clamp01(act[d] + eps)
		}
	}
	q1t := a.q1T.ForwardBatch(tIn, &a.ws)
	q2t := a.q2T.ForwardBatch(tIn, &a.ws)
	targets := a.ws.Floats(n)
	for i, tr := range batch {
		if tr.Done {
			targets[i] = tr.Reward
			continue
		}
		targets[i] = tr.Reward + a.cfg.Gamma*math.Min(q1t.At(i, 0), q2t.At(i, 0))
	}

	criticIn := a.ws.Next(n, a.stateDim+a.aDim)
	for i, tr := range batch {
		row := criticIn.Row(i)
		copy(row, tr.State)
		copy(row[a.stateDim:], tr.Action)
	}
	grad := a.ws.Next(n, 1)
	for _, cr := range [2]struct {
		net *nn.Network
		opt *nn.Adam
	}{{a.q1, a.q1Opt}, {a.q2, a.q2Opt}} {
		out := cr.net.Forward(criticIn)
		for i := range targets {
			grad.Set(i, 0, (out.At(i, 0)-targets[i])/float64(n))
		}
		cr.net.ZeroGrad()
		cr.net.BackwardParams(grad)
		cr.opt.Step(cr.net)
	}
	a.updates++
	if a.updates%a.cfg.PolicyDelay != 0 {
		return nil
	}

	// Delayed actor update via dQ1/da.
	states := a.ws.Next(n, a.stateDim)
	for i, tr := range batch {
		copy(states.Row(i), tr.State)
	}
	actions := a.actor.Forward(states)
	actIn := a.ws.Next(n, a.stateDim+a.aDim)
	for i := range batch {
		row := actIn.Row(i)
		copy(row, states.Row(i))
		copy(row[a.stateDim:], actions.Row(i))
	}
	qa := a.q1.Forward(actIn)
	ones := a.ws.Next(qa.Rows, 1)
	for i := 0; i < qa.Rows; i++ {
		ones.Set(i, 0, 1.0/float64(n))
	}
	dIn := a.q1.BackwardInput(ones)
	dAction := a.ws.Next(n, a.aDim)
	for i := 0; i < n; i++ {
		src := dIn.Row(i)[a.stateDim:]
		dst := dAction.Row(i)
		for k := range dst {
			dst[k] = -src[k]
		}
	}
	a.actor.ZeroGrad()
	a.actor.BackwardParams(dAction)
	a.actorOpt.Step(a.actor)

	a.actorT.SoftUpdate(a.actor, a.cfg.Tau)
	a.q1T.SoftUpdate(a.q1, a.cfg.Tau)
	a.q2T.SoftUpdate(a.q2, a.cfg.Tau)
	return nil
}

// Train runs the interaction loop for the given number of env steps.
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

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
