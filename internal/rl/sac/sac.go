// Package sac implements Soft Actor-Critic (Haarnoja et al., 2018), one of
// the comparison training techniques in Fig. 10(b): twin Q critics with
// target networks, a squashed-Gaussian reparameterized actor, and entropy
// regularization with a fixed temperature.
package sac

import (
	"fmt"
	"math"
	"math/rand"

	"edgeslice/internal/mathutil"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Config holds SAC hyper-parameters.
type Config struct {
	Hidden         int
	ActorLR        float64
	CriticLR       float64
	Gamma          float64
	Tau            float64
	Alpha          float64 // entropy temperature
	BatchSize      int
	ReplayCapacity int
	WarmupSteps    int
	Seed           int64
}

// DefaultConfig returns standard SAC defaults with the paper's network
// sizes.
func DefaultConfig() Config {
	return Config{
		Hidden:         128,
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		Gamma:          0.99,
		Tau:            5e-3,
		Alpha:          0.05,
		BatchSize:      128,
		ReplayCapacity: 100_000,
		WarmupSteps:    500,
		Seed:           1,
	}
}

const (
	logStdMin = -5
	logStdMax = 2
)

// Agent is a SAC learner.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: the squashed mean of the actor head

	cfg Config
	rng *rand.Rand
	src *mathutil.CountingSource // rng's backing source; checkpointed as a cursor

	actor    *nn.Network // outputs [mean..., logstd...] with identity heads
	q1, q2   *nn.Network
	q1T, q2T *nn.Network

	actorOpt, q1Opt, q2Opt *nn.Adam

	replay *rl.ReplayBuffer

	stateDim, actionDim int

	// Update-step scratch reused across steps (see ddpg.Agent).
	batch []rl.Transition
	ws    nn.Workspace
}

var _ rl.Agent = (*Agent)(nil)

// check reports whether an agent of these dimensions can train under cfg;
// New and Restore both apply it.
func (cfg Config) check(stateDim, actionDim int) error {
	if stateDim <= 0 || actionDim <= 0 || cfg.Hidden <= 0 || cfg.BatchSize <= 0 || cfg.ReplayCapacity <= 0 {
		return fmt.Errorf("sac: invalid config state=%d action=%d %+v", stateDim, actionDim, cfg)
	}
	return nil
}

// New creates a SAC agent.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if err := cfg.check(stateDim, actionDim); err != nil {
		return nil, err
	}
	rng, src := mathutil.NewCountingRNG(cfg.Seed)
	newQ := func() *nn.Network {
		return nn.NewMLP(rng, stateDim+actionDim,
			nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: 1, Act: nn.ActIdentity},
		)
	}
	actor := nn.NewMLP(rng, stateDim,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU},
		nn.LayerSpec{Out: 2 * actionDim, Act: nn.ActIdentity},
	)
	q1 := newQ()
	q2 := newQ()
	return &Agent{
		DeployedPolicy: rl.NewDeployedPolicy(actor, true),
		cfg:            cfg,
		rng:            rng,
		src:            src,
		actor:          actor,
		q1:             q1,
		q2:             q2,
		q1T:            q1.Clone(),
		q2T:            q2.Clone(),
		actorOpt:       nn.NewAdam(cfg.ActorLR),
		q1Opt:          nn.NewAdam(cfg.CriticLR),
		q2Opt:          nn.NewAdam(cfg.CriticLR),
		replay:         rl.NewReplayBuffer(cfg.ReplayCapacity),
		stateDim:       stateDim, actionDim: actionDim,
	}, nil
}

// headSplit splits the actor head into mean and clamped log-std.
func (a *Agent) headSplit(head []float64) (mean, logStd []float64) {
	mean = head[:a.actionDim]
	logStd = make([]float64, a.actionDim)
	for i := range logStd {
		logStd[i] = clamp(head[a.actionDim+i], logStdMin, logStdMax)
	}
	return mean, logStd
}

// sampleAction draws a reparameterized action; it returns the action, the
// pre-squash values u, the noise eps, and log π(a|s).
func (a *Agent) sampleAction(state []float64) (action, u, eps []float64, logP float64) {
	head := a.actor.Forward1(state)
	mean, logStd := a.headSplit(head)
	action = make([]float64, a.actionDim)
	u = make([]float64, a.actionDim)
	eps = make([]float64, a.actionDim)
	for i := range action {
		eps[i] = a.rng.NormFloat64()
		std := math.Exp(logStd[i])
		u[i] = mean[i] + std*eps[i]
		action[i] = rl.Squash(u[i])
		th := math.Tanh(u[i])
		logP += -0.5*eps[i]*eps[i] - logStd[i] - 0.5*math.Log(2*math.Pi)
		logP -= math.Log(0.5*(1-th*th) + 1e-8)
	}
	return action, u, eps, logP
}

// Observe stores a transition.
func (a *Agent) Observe(t rl.Transition) { a.replay.Add(t) }

// Update performs one SAC gradient update (both critics, actor, targets).
// Batch matrices come from the agent's workspace; the noise draws happen in
// row order (skipping done rows for the targets), matching the per-sample
// formulation's RNG stream exactly.
func (a *Agent) Update() error {
	if a.replay.Len() < a.cfg.WarmupSteps || a.replay.Len() < 2 {
		return nil
	}
	if cap(a.batch) < a.cfg.BatchSize {
		a.batch = make([]rl.Transition, a.cfg.BatchSize)
	}
	batch := a.batch[:a.cfg.BatchSize]
	if err := a.replay.SampleInto(a.rng, batch); err != nil {
		return fmt.Errorf("sac: %w", err)
	}
	n := len(batch)
	a.ws.Reset()

	// ---- Critic targets: y = r + γ(min Q'(s',ã') − α·logπ(ã'|s')). ----
	// One batched head forward for all next states, then per-row
	// reparameterized sampling, then one batched forward per target critic.
	nextIn := a.ws.Next(n, a.stateDim)
	for i, tr := range batch {
		copy(nextIn.Row(i), tr.NextState)
	}
	nextHeads := a.actor.Forward(nextIn)
	tIn := a.ws.Next(n, a.stateDim+a.actionDim)
	nlp := a.ws.Floats(n)
	for i, tr := range batch {
		row := tIn.Row(i)
		copy(row, tr.NextState)
		if tr.Done {
			continue
		}
		head := nextHeads.Row(i)
		act := row[a.stateDim:]
		var logP float64
		for d := 0; d < a.actionDim; d++ {
			logStd := clamp(head[a.actionDim+d], logStdMin, logStdMax)
			eps := a.rng.NormFloat64()
			std := math.Exp(logStd)
			u := head[d] + std*eps
			act[d] = rl.Squash(u)
			th := math.Tanh(u)
			logP += -0.5*eps*eps - logStd - 0.5*math.Log(2*math.Pi)
			logP -= math.Log(0.5*(1-th*th) + 1e-8)
		}
		nlp[i] = logP
	}
	q1t := a.q1T.ForwardBatch(tIn, &a.ws)
	q2t := a.q2T.ForwardBatch(tIn, &a.ws)
	targets := a.ws.Floats(n)
	for i, tr := range batch {
		if tr.Done {
			targets[i] = tr.Reward
			continue
		}
		targets[i] = tr.Reward + a.cfg.Gamma*(math.Min(q1t.At(i, 0), q2t.At(i, 0))-a.cfg.Alpha*nlp[i])
	}

	criticIn := a.ws.Next(n, a.stateDim+a.actionDim)
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

	// ---- Actor update (reparameterized, per-sample analytic grads). ----
	// The batched head forward below doubles as the cached forward pass for
	// the actor Backward at the end.
	states := a.ws.Next(n, a.stateDim)
	for i, tr := range batch {
		copy(states.Row(i), tr.State)
	}
	heads := a.actor.Forward(states)
	headGrad := a.ws.NextZeroed(n, 2*a.actionDim)
	in1 := a.ws.Next(1, a.stateDim+a.actionDim)
	g1 := a.ws.Next(1, 1)
	g1.Set(0, 0, 1)
	u := a.ws.Floats(a.actionDim)
	eps := a.ws.Floats(a.actionDim)
	for i, tr := range batch {
		head := heads.Row(i)
		row := in1.Row(0)
		copy(row, tr.State)
		act := row[a.stateDim:]
		for d := 0; d < a.actionDim; d++ {
			logStd := clamp(head[a.actionDim+d], logStdMin, logStdMax)
			eps[d] = a.rng.NormFloat64()
			u[d] = head[d] + math.Exp(logStd)*eps[d]
			act[d] = rl.Squash(u[d])
		}
		q1v := a.q1.Forward(in1).At(0, 0)
		q2v := a.q2.Forward(in1).At(0, 0)
		qNet := a.q1
		if q2v < q1v {
			qNet = a.q2
		}
		// dQ/da via critic input gradients. Both critics' forward caches
		// from the min-Q evaluation above are still valid, so the
		// backward pass runs directly without a third forward.
		dIn := qNet.BackwardInput(g1)
		dQda := dIn.Row(0)[a.stateDim:]

		row = headGrad.Row(i)
		for d := 0; d < a.actionDim; d++ {
			th := math.Tanh(u[d])
			dadU := 0.5 * (1 - th*th)
			logStd := clamp(head[a.actionDim+d], logStdMin, logStdMax)
			std := math.Exp(logStd)
			// ∂L/∂µ  = α·2tanh(u) − dQ/da · da/du
			row[d] = (a.cfg.Alpha*2*th - dQda[d]*dadU) / float64(n)
			// ∂L/∂logσ = α(−1 + 2tanh(u)·σε) − dQ/da·da/du·σε,
			// zeroed when the clamp is active.
			raw := head[a.actionDim+d]
			if raw > logStdMin && raw < logStdMax {
				row[a.actionDim+d] = (a.cfg.Alpha*(-1+2*th*std*eps[d]) - dQda[d]*dadU*std*eps[d]) / float64(n)
			}
		}
	}
	a.actor.ZeroGrad()
	a.actor.BackwardParams(headGrad)
	nn.ClipGrads(a.actor, 5)
	a.actorOpt.Step(a.actor)

	a.q1T.SoftUpdate(a.q1, a.cfg.Tau)
	a.q2T.SoftUpdate(a.q2, a.cfg.Tau)
	return nil
}

// Train runs the SAC interaction loop for the given number of env steps.
func (a *Agent) Train(env rl.Env, steps int) error {
	state := env.Reset()
	for i := 0; i < steps; i++ {
		var action []float64
		if a.replay.Len() < a.cfg.WarmupSteps {
			action = randomAction(a.rng, a.actionDim)
		} else {
			action, _, _, _ = a.sampleAction(state)
		}
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

func randomAction(rng *rand.Rand, dim int) []float64 {
	out := make([]float64, dim)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
