// Package offpolicy implements two actor-critic techniques over one replay
// memory, critic step, soft update, training loop and checkpoint path:
// DDPG (Lillicrap et al., 2015), which the paper trains its orchestration
// agents with (Sec. IV-B.2, Fig. 3), and SAC (Haarnoja et al., 2018), a
// comparison technique of Fig. 10(b). They differ only in the actor head (a
// sigmoid µ(s), or a tanh-squashed Gaussian trained by reparameterization),
// the actor target (DDPG's), the critics (DDPG's one π(s,a), the paper's
// notation, or SAC's twin with a min) and SAC's entropy terms.
package offpolicy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// The techniques, named as their checkpoints are.
const (
	DDPG = "ddpg"
	SAC  = "sac"
)

var techniques = []string{DDPG, SAC}

// Config holds the hyper-parameters of both techniques; each reads only
// its own (see DefaultConfig). The field order and the omitempty tags keep
// each technique's checkpoint config byte-equal to the one checkpoints
// stored before the two shared this type.
type Config struct {
	// Technique is DDPG or SAC. A checkpoint records it as its algorithm
	// name, not in its config.
	Technique string `json:"-"`

	Hidden         int     // neurons per hidden layer
	ActorLR        float64 // actor learning rate
	CriticLR       float64 // critic learning rate
	Gamma          float64 // discount factor
	Tau            float64 // soft target update coefficient
	Alpha          float64 `json:",omitempty"` // SAC: entropy temperature
	BatchSize      int
	ReplayCapacity int
	WarmupSteps    int // steps of uniform exploration before updates start

	// DDPG: exploration noise N(0, NoiseStd²), decayed by NoiseDecay per
	// step down to NoiseMin.
	NoiseStd   float64 `json:",omitempty"`
	NoiseDecay float64 `json:",omitempty"`
	NoiseMin   float64 `json:",omitempty"`

	Seed int64
}

// DefaultConfig returns a technique's defaults: 2 hidden layers of 128
// Leaky-ReLU neurons, both learning rates 1e-3 and γ = 0.99 (Sec. VI-A),
// DDPG's batch 512 and decaying N(0,1) noise, SAC's batch 128 and α 0.05.
func DefaultConfig(technique string) Config {
	cfg := Config{Technique: technique, Hidden: 128, ActorLR: 1e-3, CriticLR: 1e-3, Gamma: 0.99,
		Tau: 5e-3, ReplayCapacity: 100_000, WarmupSteps: 500, Seed: 1}
	switch technique {
	case DDPG:
		cfg.BatchSize, cfg.NoiseStd, cfg.NoiseDecay, cfg.NoiseMin = 512, 1.0, 0.9999, 0.01
	case SAC:
		cfg.BatchSize, cfg.Alpha = 128, 0.05
	}
	return cfg
}

// check reports whether an agent of these dimensions can train under cfg;
// New and Restore both apply it.
func (cfg Config) check(stateDim, actionDim int) error {
	if !slices.Contains(techniques, cfg.Technique) {
		return fmt.Errorf("offpolicy: unknown technique %q", cfg.Technique)
	}
	if stateDim <= 0 || actionDim <= 0 || cfg.Hidden <= 0 || cfg.BatchSize <= 0 || cfg.ReplayCapacity <= 0 {
		return fmt.Errorf("%s: invalid config state=%d action=%d %+v", cfg.Technique, stateDim, actionDim, cfg)
	}
	return nil
}

// SAC's log-std bounds.
const (
	logStdMin = -5
	logStdMax = 2
)

// Agent is a DDPG or SAC learner and, once trained, a deterministic policy.
type Agent struct {
	*rl.DeployedPolicy // Act and ActBatch: DDPG's µ(s), SAC's squashed mean

	cfg Config
	pcg rand.PCG   // the agent's one generator; its state is the checkpoint's
	rng *rand.Rand // draws from pcg

	// The actor outputs DDPG's µ(s) through a sigmoid, or SAC's
	// [mean..., log-std...] with identity heads.
	actor, actorTarget *nn.Network // actorTarget: DDPG only
	actorOpt           *nn.Adam
	critics            []critic // DDPG's one, SAC's twin

	replay   *replayBuffer
	noiseStd float64 // DDPG's current exploration noise; 0 for SAC

	stateDim, actionDim int

	// Step scratch, reused so a warm step allocates nothing: the exploration
	// action, the sampled batch and the workspace the batch matrices use.
	act   []float64
	batch []rl.Transition
	ws    nn.Workspace
}

// critic is one Q network with its target and optimizer.
type critic struct {
	q, target *nn.Network
	opt       *nn.Adam
}

// New creates an agent of cfg.Technique for the given state/action
// dimensions.
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	if err := cfg.check(stateDim, actionDim); err != nil {
		return nil, err
	}
	pcg := rl.TrainerPCG(cfg.Seed)
	rng := rand.New(&pcg)
	hidden := nn.LayerSpec{Out: cfg.Hidden, Act: nn.ActLeakyReLU}
	a, err := build(cfg, stateDim, actionDim, func(role string, in int, head nn.LayerSpec) (*nn.Network, error) {
		n := nn.NewMLP(rng, in, hidden, hidden, head)
		if role == "actor" && cfg.Technique == DDPG {
			// Shrink the output layer's initial weights so the starting
			// policy sits near the sigmoid's linear region (outputs ≈ 0.5)
			// instead of a saturated corner where gradients vanish.
			out := n.Layers[len(n.Layers)-1]
			for i := range out.W.Data {
				out.W.Data[i] *= 0.1
			}
		}
		return n, nil
	}, func(_ string, online *nn.Network) (*nn.Network, error) { return online.Clone(), nil })
	if err != nil {
		return nil, err
	}
	a.pcg, a.replay = pcg, newReplayBuffer(cfg.ReplayCapacity, stateDim, actionDim)
	return a, nil
}

// build assembles an agent of cfg.Technique with fresh optimizers, cfg's
// noise and an unseeded generator. net makes or decodes each online
// network, actor first, then each critic, from its role, input width and
// output layer; target copies or decodes each target network from its role
// and online network.
func build(cfg Config, stateDim, actionDim int, net func(role string, in int, head nn.LayerSpec) (*nn.Network, error),
	target func(role string, online *nn.Network) (*nn.Network, error)) (*Agent, error) {
	a := &Agent{cfg: cfg, stateDim: stateDim, actionDim: actionDim, actorOpt: nn.NewAdam(cfg.ActorLR), noiseStd: cfg.NoiseStd,
		act: make([]float64, actionDim)}
	a.rng = rand.New(&a.pcg)
	head := nn.LayerSpec{Out: actionDim, Act: nn.ActSigmoid}
	if cfg.Technique == SAC {
		head = nn.LayerSpec{Out: 2 * actionDim, Act: nn.ActIdentity}
	}
	roles := criticRoles[cfg.Technique]
	a.critics = make([]critic, len(roles))
	var err error
	if a.actor, err = net("actor", stateDim, head); err != nil {
		return nil, err
	}
	a.DeployedPolicy = rl.NewDeployedPolicy(a.actor, cfg.Technique == SAC)
	for c := range a.critics {
		if a.critics[c].q, err = net(roles[c].q, stateDim+actionDim, nn.LayerSpec{Out: 1, Act: nn.ActIdentity}); err != nil {
			return nil, err
		}
		a.critics[c].opt = nn.NewAdam(cfg.CriticLR)
	}
	if cfg.Technique == DDPG {
		if a.actorTarget, err = target("actor-target", a.actor); err != nil {
			return nil, err
		}
	}
	for c := range a.critics {
		if a.critics[c].target, err = target(roles[c].target, a.critics[c].q); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// criticRoles names each technique's critics and their targets as
// checkpoints store them.
var criticRoles = map[string][]struct{ q, target string }{
	DDPG: {{"critic", "critic-target"}},
	SAC:  {{"q1", "q1-target"}, {"q2", "q2-target"}},
}

// Technique returns DDPG or SAC.
func (a *Agent) Technique() string { return a.cfg.Technique }

// Actor exposes the actor network for serialization.
func (a *Agent) Actor() *nn.Network { return a.actor }

// ActExplore returns the exploration action: uniform-random during warmup
// (so the replay buffer sees the whole action box, including the jointly
// positive allocations a corner-saturated policy would never visit), then
// DDPG's µ(s) plus N(0, σ²) noise with σ decaying (Sec. VI-A), clamped to
// [0,1], or a reparameterized draw from SAC's squashed Gaussian, written to
// agent-owned scratch that the next call reuses.
//
//edgeslice:noalloc
func (a *Agent) ActExplore(state []float64) []float64 {
	act := a.act
	if a.replay.Len() < a.cfg.WarmupSteps {
		for i := range act {
			act[i] = a.rng.Float64()
		}
		return act
	}
	a.ws.Reset()
	head := a.actor.Forward1WS(state, &a.ws)
	if a.cfg.Technique == SAC {
		a.draw(head, act, a.ws.Floats(a.actionDim), a.ws.Floats(a.actionDim))
		return act
	}
	for i := range act {
		act[i] = min(max(head[i]+float64(a.rng.NormFloat64()*a.noiseStd), 0), 1) // noise rounded, never fused
	}
	a.noiseStd = max(a.noiseStd*a.cfg.NoiseDecay, a.cfg.NoiseMin)
	return act
}

// logStd is SAC's clamped log-std of action dimension d in an actor head.
func (a *Agent) logStd(head []float64, d int) float64 {
	return max(logStdMin, min(head[a.actionDim+d], logStdMax))
}

// draw writes a reparameterized sample of SAC's squashed Gaussian for the
// actor head [mean..., log-std...] into act, one unit normal per dimension
// in order, and keeps the pre-squash values in u and the noise in eps.
func (a *Agent) draw(head, act, u, eps []float64) {
	for d := range act {
		eps[d] = a.rng.NormFloat64()
		u[d] = head[d] + math.Exp(a.logStd(head, d))*eps[d]
		act[d] = rl.Squash(u[d])
	}
}

// Observe copies a transition into replay memory.
func (a *Agent) Observe(t rl.Transition) { a.replay.Add(t) }

// Update performs one gradient update of the critics and the actor plus
// the soft target updates. It is a no-op until the replay buffer holds
// WarmupSteps transitions. All batch matrices are drawn from the agent's
// workspace, so a warm update step is allocation-free. SAC's noise draws
// happen in row order (skipping done rows for the targets).
func (a *Agent) Update() error {
	if a.replay.Len() < a.cfg.WarmupSteps || a.replay.Len() < 2 {
		return nil
	}
	if cap(a.batch) < a.cfg.BatchSize {
		a.batch = make([]rl.Transition, a.cfg.BatchSize)
	}
	batch := a.batch[:a.cfg.BatchSize]
	if err := a.replay.SampleInto(a.rng, batch); err != nil {
		return fmt.Errorf("%s: %w", a.cfg.Technique, err)
	}
	n, sd := len(batch), a.stateDim
	a.ws.Reset()

	// ---- Critic targets (Eq. 16/17): y = r + γ·Q'(s', a'), with a' from
	// the target actor; SAC takes a' from a fresh draw of the actor, the
	// min of its twin target critics, and subtracts α·log π(a'|s'). ----
	nextStates := a.ws.Next(n, sd)
	targetIn := a.ws.Next(n, sd+a.actionDim)
	for i, tr := range batch {
		copy(nextStates.Row(i), tr.NextState)
		copy(targetIn.Row(i), tr.NextState)
	}
	var logP []float64 // SAC's log π(a'|s')
	if a.actorTarget != nil {
		next := a.actorTarget.ForwardBatch(nextStates, &a.ws)
		for i := range batch {
			copy(targetIn.Row(i)[sd:], next.Row(i))
		}
	} else {
		heads := a.actor.ForwardBatch(nextStates, &a.ws)
		logP = a.ws.Floats(n)
		u, eps := a.ws.Floats(a.actionDim), a.ws.Floats(a.actionDim)
		for i, tr := range batch {
			if tr.Done {
				continue
			}
			head := heads.Row(i)
			a.draw(head, targetIn.Row(i)[sd:], u, eps)
			var lp float64
			for d := range u {
				th := math.Tanh(u[d])
				lp += -0.5*eps[d]*eps[d] - a.logStd(head, d) - 0.5*math.Log(2*math.Pi)
				lp -= math.Log(0.5*(1-th*th) + 1e-8)
			}
			logP[i] = lp
		}
	}
	var targetQ [2]*nn.Matrix
	for c, cr := range a.critics {
		targetQ[c] = cr.target.ForwardBatch(targetIn, &a.ws)
	}
	targets := a.ws.Floats(n)
	for i, tr := range batch {
		targets[i] = tr.Reward
		if tr.Done {
			continue
		}
		q := targetQ[0].At(i, 0)
		if len(a.critics) == 2 {
			q = math.Min(q, targetQ[1].At(i, 0)) - a.cfg.Alpha*logP[i]
		}
		targets[i] += a.cfg.Gamma * q
	}

	// ---- Critic updates: minimize each critic's MSBE. ----
	criticIn, states := a.ws.Next(n, sd+a.actionDim), a.ws.Next(n, sd)
	for i, tr := range batch {
		row := criticIn.Row(i)
		copy(row, tr.State)
		copy(row[sd:], tr.Action)
		copy(states.Row(i), tr.State)
	}
	grad := a.ws.Next(n, 1)
	for _, cr := range a.critics {
		out := cr.q.Forward(criticIn)
		for i := range targets {
			grad.Set(i, 0, (out.At(i, 0)-targets[i])/float64(n))
		}
		cr.q.ZeroGrad()
		cr.q.BackwardParams(grad)
		cr.opt.Step(cr.q)
	}

	// ---- Actor update. The forward below is also the cached pass the
	// actor's BackwardParams runs on. ----
	out := a.actor.Forward(states)
	a.actor.ZeroGrad()
	if a.cfg.Technique == DDPG {
		a.actor.BackwardParams(a.policyGrad(states, out))
	} else {
		a.actor.BackwardParams(a.softPolicyGrad(batch, out))
		nn.ClipGrads(a.actor, 5)
	}
	a.actorOpt.Step(a.actor)

	// ---- Soft target updates (Fig. 3). ----
	if a.actorTarget != nil {
		a.actorTarget.SoftUpdate(a.actor, a.cfg.Tau)
	}
	for _, cr := range a.critics {
		cr.target.SoftUpdate(cr.q, a.cfg.Tau)
	}
	return nil
}

// policyGrad is DDPG's deterministic policy gradient (Eq. 18) with respect
// to the actions µ(s) the actor took at states: −∂Q(s, µ(s))/∂a / n per
// row, so that descending it ascends the critic's mean Q.
func (a *Agent) policyGrad(states, actions *nn.Matrix) *nn.Matrix {
	n, sd := states.Rows, a.stateDim
	in, up := a.ws.Next(n, sd+a.actionDim), a.ws.Next(n, 1)
	for i := 0; i < n; i++ {
		copy(in.Row(i), states.Row(i))
		copy(in.Row(i)[sd:], actions.Row(i))
		up.Set(i, 0, 1.0/float64(n))
	}
	a.critics[0].q.Forward(in)
	dIn := a.critics[0].q.BackwardInput(up) // input grads only, not critic param grads
	dAction := a.ws.Next(n, a.actionDim)
	for i := 0; i < n; i++ {
		src, dst := dIn.Row(i)[sd:], dAction.Row(i)
		for k := range dst {
			dst[k] = -src[k]
		}
	}
	return dAction
}

// softPolicyGrad is SAC's actor-loss gradient with respect to the actor
// heads at the batch's states: per row, one reparameterized draw, dQ/da
// from the lesser critic, and the analytic gradient of α·log π − Q through
// the squash.
func (a *Agent) softPolicyGrad(batch []rl.Transition, heads *nn.Matrix) *nn.Matrix {
	n, sd, ad := len(batch), a.stateDim, a.actionDim
	headGrad := a.ws.NextZeroed(n, 2*ad)
	in1 := a.ws.Next(1, sd+ad)
	g1 := a.ws.Next(1, 1)
	g1.Set(0, 0, 1)
	u, eps := a.ws.Floats(ad), a.ws.Floats(ad)
	for i, tr := range batch {
		head := heads.Row(i)
		copy(in1.Row(0), tr.State)
		a.draw(head, in1.Row(0)[sd:], u, eps)
		qNet := a.critics[0].q
		if q1, q2 := qNet.Forward(in1).At(0, 0), a.critics[1].q.Forward(in1).At(0, 0); q2 < q1 {
			qNet = a.critics[1].q
		}
		// Both critics' forward caches from the min above are valid, so
		// the backward pass runs without a third forward.
		dQda := qNet.BackwardInput(g1).Row(0)[sd:]
		row := headGrad.Row(i)
		for d := 0; d < ad; d++ {
			th := math.Tanh(u[d])
			dadU := 0.5 * (1 - th*th)
			std := math.Exp(a.logStd(head, d))
			// ∂L/∂µ  = α·2tanh(u) − dQ/da · da/du
			row[d] = (a.cfg.Alpha*2*th - dQda[d]*dadU) / float64(n)
			// ∂L/∂logσ = α(−1 + 2tanh(u)·σε) − dQ/da·da/du·σε,
			// zeroed when the clamp is active.
			if raw := head[ad+d]; raw > logStdMin && raw < logStdMax {
				row[ad+d] = (a.cfg.Alpha*(-1+2*th*std*eps[d]) - dQda[d]*dadU*std*eps[d]) / float64(n)
			}
		}
	}
	return headGrad
}

// Train runs the interaction loop against env for the given number of
// environment steps, updating after every step once warm. The replay rows
// the steps fill are reserved up front, so a warm step allocates nothing.
func (a *Agent) Train(env rl.Env, steps int) error {
	a.replay.reserve(steps)
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
