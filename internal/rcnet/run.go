package rcnet

import (
	"fmt"
	"time"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
)

// periodReport is the report payload of one agent-period, in buffers the
// RunAgent loop owns and reuses: every period overwrites them, and nothing
// holds on to them between periods — Report encodes before it returns — so
// the payload of the last executed period stays intact for a re-report.
type periodReport struct {
	perf      []float64
	queues    []int
	intervals []IntervalRecord // rows carved from flat arrays, see newPeriodReport

	state []float64         // observation scratch
	res   netsim.StepResult // StepInto target, copied out every interval
}

func newPeriodReport(env *netsim.RAEnv) *periodReport {
	I, T := env.Config().NumSlices, env.Config().T
	const K = netsim.NumResources
	floats := make([]float64, T*I*(1+K))
	ints := make([]int, T*I)
	effRows := make([][]float64, T*I)
	r := &periodReport{
		perf:      make([]float64, I),
		queues:    make([]int, I),
		intervals: make([]IntervalRecord, T),
		state:     make([]float64, 0, env.StateDim()),
	}
	for t := range r.intervals {
		f := floats[t*I*(1+K) : (t+1)*I*(1+K)]
		eff := effRows[t*I : (t+1)*I]
		for i := range eff {
			eff[i] = f[I+i*K : I+(i+1)*K : I+(i+1)*K]
		}
		r.intervals[t] = IntervalRecord{Perf: f[:I:I], Queues: ints[t*I : (t+1)*I : (t+1)*I], Effective: eff}
	}
	return r
}

// stepPeriod installs (z, y) and orchestrates one period's T intervals with
// the policy, leaving the period report payload in rep.
func stepPeriod(env *netsim.RAEnv, agent rl.Agent, z, y []float64, rep *periodReport) error {
	if err := env.SetCoordination(z, y); err != nil {
		return err
	}
	for t := range rep.intervals {
		rep.state = env.StateInto(rep.state[:0])
		if err := env.StepInto(agent.Act(rep.state), &rep.res); err != nil {
			return err
		}
		ir := &rep.intervals[t]
		copy(ir.Perf, rep.res.Perf)
		copy(ir.Queues, rep.res.QueueLens)
		for i := range ir.Effective {
			copy(ir.Effective[i], rep.res.Effective[i][:])
		}
		ir.Violation = rep.res.Violation
	}
	env.PeriodPerfInto(rep.perf)
	env.QueueLensInto(rep.queues)
	return nil
}

// RunAgent drives one RA from the agent side: for each coordination message
// it installs (z, y), orchestrates T intervals with the policy, and reports
// the period performance together with the per-interval records (perf,
// queue lengths, effective allocation, capacity violation) that let the
// coordinator reconstruct the full History of a local run. It returns nil
// when the coordinator shuts the session down.
//
// RunAgent participates in the fault-tolerant protocol, which requires env
// to be freshly seeded (period 0 state) on entry:
//
//   - A resume frame (sent by the hub right after registration when the run
//     is mid-flight) makes it replay the completed periods' coordination
//     columns locally — same deterministic env, same policy, no reports —
//     so the env state catches up bit-identically before live periods.
//   - A re-broadcast of the period it just executed (the coordinator timed
//     out before this RA's report was drained, then retried) re-sends the
//     cached report without stepping the env again, preserving the
//     one-step-per-period invariant that bit-reproducibility rests on.
func RunAgent(c *AgentClient, env *netsim.RAEnv, agent rl.Agent, timeout time.Duration) error {
	done := 0 // periods already stepped into env (replayed or live)
	rep := newPeriodReport(env)
	for {
		m, err := c.Recv(timeout)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgShutdown:
			return nil
		case MsgResume:
			target := m.Period
			if target <= done {
				continue // nothing new to replay
			}
			if done != 0 {
				return fmt.Errorf("rcnet: resume to period %d after %d live periods; reconnect with a fresh env", target, done)
			}
			if len(m.ZHist) < target || len(m.YHist) < target {
				return fmt.Errorf("rcnet: resume to period %d carries %d/%d history columns", target, len(m.ZHist), len(m.YHist))
			}
			for p := 0; p < target; p++ {
				if err := stepPeriod(env, agent, m.ZHist[p], m.YHist[p], rep); err != nil {
					return fmt.Errorf("rcnet: replaying period %d: %w", p, err)
				}
			}
			done = target
		case MsgCoordination:
			switch {
			case m.Period == done-1:
				// Retry of the period this RA already executed: its report
				// sat undrained past the coordinator's collect timeout.
				// Re-report the outcome still sitting in rep; stepping again
				// would fork the env from the serial run.
				if err := c.Report(m.Period, rep.perf, rep.queues, rep.intervals); err != nil {
					return err
				}
			case m.Period == done:
				if err := stepPeriod(env, agent, m.Z, m.Y, rep); err != nil {
					return err
				}
				done++
				if err := c.Report(m.Period, rep.perf, rep.queues, rep.intervals); err != nil {
					return err
				}
			case m.Period < done-1:
				// Stale duplicate from an old retry; already superseded.
			default:
				return fmt.Errorf("rcnet: coordination for period %d but only %d periods executed (missed resume?)", m.Period, done)
			}
		}
	}
}
