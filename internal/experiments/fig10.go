package experiments

import (
	"fmt"
	"strings"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
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
		h, err := o.runSystem(o.systemConfig(core.AlgoEdgeSlice), agent)
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

// trainWithTechnique trains one Fig. 10(b) agent with the named technique
// at comparable budgets (same environment, same step count). DDPG's is the
// system's own agent, trained by System.Train; System.Train trains DDPG
// only, so the other four train here in the environment it trains in.
func trainWithTechnique(o Options, tech string) (rl.Agent, error) {
	tech = strings.ToLower(tech)
	if tech == offpolicy.DDPG {
		return trainPolicy(o.systemConfig(core.AlgoEdgeSlice))
	}
	envCfg := netsim.DefaultExperimentConfig()
	envCfg.ObserveQueue = true
	envCfg.TrainCoordRandom = true
	envCfg.Seed = o.Seed + 104729
	env, err := netsim.New(envCfg)
	if err != nil {
		return nil, err
	}
	if tech == offpolicy.SAC {
		cfg := offpolicy.DefaultConfig(tech)
		cfg.Hidden, cfg.BatchSize, cfg.WarmupSteps, cfg.Seed = o.Hidden, o.Batch, 300, o.Seed
		agent, err := offpolicy.New(env.StateDim(), env.ActionDim(), cfg)
		if err != nil {
			return nil, err
		}
		return agent, agent.Train(env, o.TrainSteps)
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
