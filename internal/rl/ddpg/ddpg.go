// Package ddpg is the name the benchmark module builds its DDPG agents
// under: aliases of package offpolicy's trainer.
package ddpg

import "edgeslice/internal/rl/offpolicy"

//edgeslice:reach bench/ imports it until ROADMAP 3's bench half
type Agent = offpolicy.Agent

//edgeslice:reach bench/ imports it until ROADMAP 3's bench half
type Config = offpolicy.Config

//edgeslice:reach bench/ imports it until ROADMAP 3's bench half
func DefaultConfig() Config { return offpolicy.DefaultConfig(offpolicy.DDPG) }

//edgeslice:reach bench/ imports it until ROADMAP 3's bench half
func New(stateDim, actionDim int, cfg Config) (*Agent, error) {
	return offpolicy.New(stateDim, actionDim, cfg)
}
