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
func Fig10(o Options) (*Figure, *Figure, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	figA := &Figure{
		ID:    "fig10a",
		Title: "System performance vs number of training steps",
		Notes: "paper: under-trained agents (1e5 steps) fall below TARO; more steps help",
	}
	fractions := []float64{0.1, 0.5, 1.0, 1.5}
	paperSteps := []float64{1e5, 5e5, 1e6, 1.5e6}
	for _, algo := range comparisonAlgos {
		s := Series{Name: algo.String()}
		for fi, frac := range fractions {
			steps := int(frac * float64(o.TrainSteps))
			if steps < 1 {
				steps = 1
			}
			h, err := o.runAlgo(algo, func(c *core.Config) {
				if algo.IsLearning() {
					c.TrainSteps = steps
				}
			})
			if err != nil {
				return nil, nil, fmt.Errorf("fig10a %v@%d: %w", algo, steps, err)
			}
			mp, err := h.MeanSystemPerf(h.Intervals() / 2)
			if err != nil {
				return nil, nil, err
			}
			s.X = append(s.X, paperSteps[fi])
			s.Y = append(s.Y, mp)
		}
		figA.Series = append(figA.Series, s)
	}

	figB := &Figure{
		ID:    "fig10b",
		Title: "System performance vs training technique",
		Notes: "paper: DDPG-trained agents perform best among the five techniques",
	}
	for _, tech := range TrainingTechniques {
		agent, err := trainWithTechnique(o, tech)
		if err != nil {
			return nil, nil, fmt.Errorf("fig10b %s: %w", tech, err)
		}
		cfg := o.systemConfig(core.AlgoEdgeSlice)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := sys.SetAgents([]rl.Agent{agent}); err != nil {
			return nil, nil, err
		}
		h, err := sys.RunPeriods(o.Periods)
		if err != nil {
			return nil, nil, err
		}
		mp, err := h.MeanSystemPerf(h.Intervals() / 2)
		if err != nil {
			return nil, nil, err
		}
		figB.Series = append(figB.Series, Series{Name: tech, X: []float64{1}, Y: []float64{mp}})
	}
	return figA, figB, nil
}

// trainWithTechnique trains one agent for the experiment environment using
// the named technique with comparable budgets (same env, same step count).
func trainWithTechnique(o Options, tech string) (rl.Agent, error) {
	tech = strings.ToLower(tech)
	if tech == offpolicy.DDPG || tech == offpolicy.SAC {
		return o.trainExperimentAgent(tech, true)
	}
	env, err := o.trainingEnv(true)
	if err != nil {
		return nil, err
	}
	cfg := onpolicy.DefaultConfig(tech)
	cfg.Hidden = o.Hidden
	cfg.Seed = o.Seed
	agent, err := onpolicy.New(env.StateDim(), env.ActionDim(), cfg)
	if err != nil {
		return nil, err
	}
	return agent, agent.Train(env, o.TrainSteps)
}
