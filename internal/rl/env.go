// Package rl provides the reinforcement-learning substrate shared by the
// DDPG, SAC, PPO, TRPO and VPG trainers: the environment abstraction, the
// transition and the deployed acting policy.
//
// The paper trains its orchestration agents with DDPG and compares against
// the other four techniques in Fig. 10(b); the two off-policy ones share
// one trainer, package offpolicy, and the three on-policy ones another,
// package onpolicy.
package rl

import (
	"math/rand/v2"

	"edgeslice/internal/mathutil"
)

// TrainerPCG is a trainer's generator, seeded from its config seed. netsim
// seeds RA j's environment from Seed + j·7919 through the same
// mathutil.SeedPCG, so the seed is salted first: at equal seeds a trainer
// does not draw RA 0's stream.
func TrainerPCG(seed int64) (p rand.PCG) {
	mathutil.SeedPCG(&p, seed^trainerSalt)
	return p
}

// trainerSalt is "trainer" in ASCII.
const trainerSalt = 0x747261696e6572

// Env is a continuous-action reinforcement-learning environment with the
// standard observe/act/reward interaction of Sec. IV-B. A state Reset or
// Step returns may be env-owned: it stays valid through the env's next call
// and no longer, so a caller that keeps states longer copies them. An env
// keeps none of the caller's actions.
type Env interface {
	// Reset starts a new episode and returns the initial state.
	Reset() []float64
	// Step applies an action and returns the next state, the reward, and
	// whether the episode ended.
	Step(action []float64) (next []float64, reward float64, done bool)
	// StateDim is the length of state vectors.
	StateDim() int
	// ActionDim is the length of action vectors. Actions are expected in
	// [0, 1] per dimension (the paper's sigmoid output layer).
	ActionDim() int
}

// Agent maps states to deterministic actions; it is what training produces
// and what the orchestration loop consumes.
type Agent interface {
	Act(state []float64) []float64
}

// AgentFunc adapts a plain function to the Agent interface.
type AgentFunc func(state []float64) []float64

// Act implements Agent.
func (f AgentFunc) Act(state []float64) []float64 { return f(state) }

// Transition is one (s, a, r, s') experience tuple stored in replay memory.
// Replay memory copies it, so its slices stay the caller's.
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}
