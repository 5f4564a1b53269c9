package experiments

import (
	"fmt"
	"strings"

	"edgeslice/internal/core"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/rl/onpolicy"
)

// TrainingTechniques are the Fig. 10(b) comparison set.
var TrainingTechniques = []string{"DDPG", "SAC", "PPO", "TRPO", "VPG"}

// Fig10 reproduces "The impact of training techniques": (a) system
// performance vs the number of training steps for EdgeSlice, EdgeSlice-NT
// and TARO; (b) system performance of agents trained with DDPG, SAC, PPO,
// TRPO and VPG.
//
// Step counts are scaled: the paper's {1e5, 5e5, 1e6, 1.5e6} TF steps map
// to {0.1, 0.5, 1.0, 1.5} × Options.TrainSteps so the relative step ratios
// are preserved (EXPERIMENTS.md, which would record this, is not generated
// yet: ROADMAP "Paper-scale fidelity as a regenerated artifact").
func (l *Lab) Fig10() (*Figure, *Figure, error) {
	figA := &Figure{
		ID:    "fig10a",
		Title: "System performance vs number of training steps",
		Notes: "paper: under-trained agents (1e5 steps) fall below TARO; more steps help",
	}
	var err error
	figA.Series, err = l.steadySeries([]float64{1e5, 5e5, 1e6, 1.5e6}, false, func(algo core.Algorithm, paperSteps float64) (core.Config, error) {
		cfg := l.o.systemConfig(algo)
		if algo.IsLearning() {
			cfg.TrainSteps = max(int(paperSteps/1e6*float64(l.o.TrainSteps)), 1)
		}
		return cfg, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig10a: %w", err)
	}

	figB := &Figure{
		ID:    "fig10b",
		Title: "System performance vs training technique",
		Notes: "paper: DDPG-trained agents perform best among the five techniques",
	}
	cfg := l.o.systemConfig(core.AlgoEdgeSlice)
	for _, tech := range TrainingTechniques {
		agent, err := l.trainWithTechnique(cfg, tech)
		if err != nil {
			return nil, nil, fmt.Errorf("fig10b %s: %w", tech, err)
		}
		mp, err := steady(l.run(cfg, agent, l.o.Periods))
		if err != nil {
			return nil, nil, fmt.Errorf("fig10b %s: %w", tech, err)
		}
		figB.Series = append(figB.Series, Series{Name: tech, X: []float64{1}, Y: []float64{mp}})
	}
	return figA, figB, nil
}

// trainWithTechnique trains one Fig. 10(b) agent for cfg with the named
// technique at comparable budgets (same environment, same step count).
// DDPG's is the system's own agent, trained by System.Train; System.Train
// trains DDPG only, so the other four train here in the environment it
// trains in.
func (l *Lab) trainWithTechnique(cfg core.Config, tech string) (rl.Agent, error) {
	tech = strings.ToLower(tech)
	if tech == offpolicy.DDPG {
		return l.policy(cfg)
	}
	env, err := cfg.NewTrainingEnv()
	if err != nil {
		return nil, err
	}
	var agent interface {
		rl.Agent
		Train(env rl.Env, steps int) error
	}
	if tech == offpolicy.SAC {
		c := offpolicy.DefaultConfig(tech)
		c.Hidden, c.BatchSize, c.WarmupSteps, c.Seed = l.o.Hidden, l.o.Batch, 300, l.o.Seed
		agent, err = offpolicy.New(env.StateDim(), env.ActionDim(), c)
	} else {
		c := onpolicy.DefaultConfig(tech)
		c.Hidden, c.Seed = l.o.Hidden, l.o.Seed
		agent, err = onpolicy.New(env.StateDim(), env.ActionDim(), c)
	}
	if err != nil {
		return nil, err
	}
	return agent, agent.Train(env, l.o.TrainSteps)
}
