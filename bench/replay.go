package main

import (
	"bytes"
	"fmt"
	"math"

	"edgeslice/internal/baseline"
	"edgeslice/internal/core"
	"edgeslice/internal/monitor"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
	"edgeslice/internal/telemetry"
)

// A layer replay re-assembles one Algorithm-1 period from each layer's
// exported functions, on the components of a real core.System (its
// environments, coordinator and monitor), bypassing only the executor. It
// is how layers are timed from outside: every call into a layer sits inside
// a span. Within an interval the replay runs each layer for all RAs back to
// back (all actions, then all steps, then all records) — the same values in
// the same recording order as the engines' interleaved loop, because an
// RA's action depends only on its own not-yet-stepped environment. A replay
// is admitted only when its history-log bytes equal the engine's.

// recorder is the recording half shared by the local and remote replays:
// the per-run History, the optional history log and the monitor.
type recorder struct {
	sys       *core.System
	I, J, T   int
	window    int
	log       *core.HistoryLog
	perfName  []string // monitor metric names, indexed ra*I+slice
	queueName []string
}

func newRecorder(sys *core.System, lc localConfig, window int, log *core.HistoryLog) *recorder {
	r := &recorder{sys: sys, I: lc.Slices, J: lc.RAs, T: lc.T, window: window, log: log}
	sys.SetRecording(core.RecordOptions{StreamWindow: window}) // bounds the monitor like the engine's run
	for j := 0; j < r.J; j++ {
		for i := 0; i < r.I; i++ {
			r.perfName = append(r.perfName, monitor.MetricName("perf", j, i))
			r.queueName = append(r.queueName, monitor.MetricName("queue", j, i))
		}
	}
	return r
}

func (r *recorder) newHistory(k *track) *core.History {
	defer k.end(k.begin("core.NewHistory", 1))
	if r.window > 0 {
		return core.NewStreamingHistory(r.I, r.J, r.T, r.window)
	}
	return core.NewHistory(r.I, r.J, r.T)
}

// intervalSums are one interval's aggregates in the engines' summation
// order: RA-major, then slice, then resource.
type intervalSums struct {
	sysPerf, violation float64
	slicePerf          []float64
	usage              [][]float64 // fresh per interval: an exact History retains it
}

func newIntervalSums(I int) intervalSums {
	s := intervalSums{slicePerf: make([]float64, I), usage: make([][]float64, I)}
	for i := range s.usage {
		s.usage[i] = make([]float64, netsim.NumResources)
	}
	return s
}

// addTo folds one RA's interval outcome into the sums; eff is the effective
// allocation per slice, an array row locally and a slice row off the wire.
func addTo[E ~[]float64 | ~[netsim.NumResources]float64](s *intervalSums, perf []float64, violation float64, eff []E) {
	s.violation += violation
	for i := range s.slicePerf {
		s.sysPerf += perf[i]
		s.slicePerf[i] += perf[i]
		for k := 0; k < netsim.NumResources; k++ {
			s.usage[i][k] += eff[i][k]
		}
	}
}

// commitInterval divides the usage sums once, as the engines do, and
// appends the interval to the History and the log.
func (r *recorder) commitInterval(k *track, h *core.History, s intervalSums) error {
	for i := range s.usage {
		for kk := range s.usage[i] {
			s.usage[i][kk] /= float64(r.J)
		}
	}
	id := k.begin("core.AddInterval", 1)
	h.AddInterval(s.sysPerf, s.slicePerf, s.usage, s.violation)
	k.end(id)
	if r.log == nil {
		return nil
	}
	defer k.end(k.begin("core.LogInterval", 1))
	return r.log.LogInterval(s.sysPerf, s.slicePerf, s.usage, s.violation)
}

func (r *recorder) record(interval, ra, slice int, perf float64, queue int) error {
	mon := r.sys.Monitor()
	if err := mon.Record(r.perfName[ra*r.I+slice], interval, perf); err != nil {
		return err
	}
	return mon.Record(r.queueName[ra*r.I+slice], interval, float64(queue))
}

// finishPeriod is phase 3: the ADMM update on the collected grid and the
// period's coordinator-side records.
func (r *recorder) finishPeriod(k *track, h *core.History, perf [][]float64) error {
	coord := r.sys.Coordinator()
	id := k.begin("admm.Update", 1)
	err := coord.Update(perf)
	var sla []bool
	if err == nil {
		sla, err = coord.SLASatisfied(perf)
	}
	primal, dual := coord.Residuals()
	k.end(id)
	if err != nil {
		return err
	}
	id = k.begin("core.AddPeriod", 1)
	h.AddPeriod(perf, sla, primal, dual)
	k.end(id)
	if r.log == nil {
		return nil
	}
	defer k.end(k.begin("core.LogPeriod", 1))
	return r.log.LogPeriod(perf, sla, primal, dual)
}

func perfGrid(I, J int) [][]float64 {
	g := make([][]float64, I)
	for i := range g {
		g[i] = make([]float64, J)
	}
	return g
}

// column extracts RA j's column of a [slice][ra] grid.
func column(g [][]float64, j int) []float64 {
	col := make([]float64, len(g))
	for i := range g {
		col[i] = g[i][j]
	}
	return col
}

// localReplay is the in-process replay of the local engines.
type localReplay struct {
	*recorder
	actor    *nn.Network // the shared DDPG actor; nil for a baseline
	states   *nn.Matrix
	ws       nn.Workspace
	acts     [][]float64
	res      []netsim.StepResult
	interval int
	// mutate flips one byte of the first action of the next period, once.
	mutate bool
}

func newLocalReplay(lc localConfig, window int, log *core.HistoryLog) (*localReplay, error) {
	sys, agent, err := lc.build()
	if err != nil {
		return nil, err
	}
	r := &localReplay{
		recorder: newRecorder(sys, lc, window, log),
		acts:     make([][]float64, lc.RAs),
		res:      make([]netsim.StepResult, lc.RAs),
	}
	if agent != nil {
		r.actor = agent.Actor()
		r.states = nn.NewMatrix(lc.RAs, sys.Env(0).StateDim())
	}
	return r, nil
}

// period replays one period; spans go to k under one core.replay_period
// root tagged with op.
func (r *localReplay) period(k *track, op int) (*core.History, error) {
	k.op = op
	defer k.end(k.begin("core.replay_period", 1))
	sys, coord := r.sys, r.sys.Coordinator()

	id := k.begin("admm.ZY", 2)
	z, y := coord.Z(), coord.Y()
	k.end(id)
	id = k.begin("netsim.SetCoordination", r.J)
	for j := 0; j < r.J; j++ {
		if err := sys.Env(j).SetCoordination(column(z, j), column(y, j)); err != nil {
			return nil, err
		}
	}
	k.end(id)
	h := r.newHistory(k)

	for t := 0; t < r.T; t++ {
		interval := r.interval
		r.interval++
		if r.actor != nil {
			dim := r.states.Cols
			id = k.begin("netsim.StateInto", r.J)
			for j := 0; j < r.J; j++ {
				sys.Env(j).StateInto(r.states.Data[j*dim : j*dim : (j+1)*dim])
			}
			k.end(id)
			id = k.begin("nn.ForwardBatch", 1)
			r.ws.Reset()
			out := r.actor.ForwardBatch(r.states, &r.ws)
			k.end(id)
			for j := range r.acts {
				r.acts[j] = out.Row(j)
			}
		} else {
			id = k.begin("baseline.TARO", r.J)
			for j := 0; j < r.J; j++ {
				a, err := baseline.TARO(sys.Env(j).QueueLens(), netsim.NumResources)
				if err != nil {
					return nil, err
				}
				r.acts[j] = a
			}
			k.end(id)
		}
		if r.mutate {
			r.mutate = false
			r.acts[0][0] = math.Float64frombits(math.Float64bits(r.acts[0][0]) ^ 0xff<<40)
		}

		id = k.begin("netsim.StepInterval", r.J)
		for j := 0; j < r.J; j++ {
			var err error
			if r.res[j], err = sys.Env(j).StepInterval(r.acts[j]); err != nil {
				return nil, fmt.Errorf("RA %d interval %d: %w", j, interval, err)
			}
		}
		k.end(id)

		id = k.begin("monitor.Record", 2*r.J*r.I)
		for j := range r.res {
			for i := 0; i < r.I; i++ {
				if err := r.record(interval, j, i, r.res[j].Perf[i], r.res[j].QueueLens[i]); err != nil {
					return nil, err
				}
			}
		}
		k.end(id)

		id = k.begin("core.merge", r.J)
		sums := newIntervalSums(r.I)
		for j := range r.res {
			addTo(&sums, r.res[j].Perf, r.res[j].Violation, r.res[j].Effective)
		}
		k.end(id)
		if err := r.commitInterval(k, h, sums); err != nil {
			return nil, err
		}
	}

	id = k.begin("netsim.PeriodPerf", r.J)
	perf := perfGrid(r.I, r.J)
	for j := 0; j < r.J; j++ {
		pp := sys.Env(j).PeriodPerf()
		for i := range perf {
			perf[i][j] = pp[i]
		}
	}
	k.end(id)
	return h, r.finishPeriod(k, h, perf)
}

// replayLogBytes is engineLogBytes for the replay: exact mode, in-memory
// log, periods periods.
func replayLogBytes(lc localConfig, periods int, mutate bool) ([]byte, error) {
	var buf bytes.Buffer
	hlog, err := core.NewHistoryLog(telemetry.NewLogWriter(&buf), lc.Slices, lc.RAs, lc.T)
	if err != nil {
		return nil, err
	}
	r, err := newLocalReplay(lc, 0, hlog)
	if err != nil {
		return nil, err
	}
	r.mutate = mutate
	k := (*tracer)(nil).track()
	for p := 0; p < periods; p++ {
		if _, err := r.period(k, p); err != nil {
			return nil, err
		}
	}
	err = hlog.Close() // flushes into buf
	return buf.Bytes(), err
}

// admitLocalReplay is the admission check: the replay's history-log bytes
// must equal the serial engine's for the same config.
func admitLocalReplay(lc localConfig, mutate bool) error {
	want, err := lc.engineLogBytes(core.EngineSerial, warmupPeriods)
	if err != nil {
		return err
	}
	got, err := replayLogBytes(lc, warmupPeriods, mutate)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("local layer replay rejected: its history log differs from the serial engine's (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// agentStep is the agent side of one period, as rcnet.RunAgent does it:
// install (z, y), orchestrate T intervals, build the report payload.
func agentStep(env *netsim.RAEnv, policy rl.Agent, z, y []float64) (perf []float64, queues []int, recs []rcnet.IntervalRecord, err error) {
	if err := env.SetCoordination(z, y); err != nil {
		return nil, nil, nil, err
	}
	T := env.Config().T
	recs = make([]rcnet.IntervalRecord, T)
	for t := 0; t < T; t++ {
		res, err := env.StepInterval(policy.Act(env.State()))
		if err != nil {
			return nil, nil, nil, err
		}
		eff := make([][]float64, len(res.Effective))
		for i := range res.Effective {
			eff[i] = append([]float64(nil), res.Effective[i][:]...)
		}
		recs[t] = rcnet.IntervalRecord{Perf: res.Perf, Queues: res.QueueLens, Effective: eff, Violation: res.Violation}
	}
	return env.PeriodPerf(), env.QueueLens(), recs, nil
}

// tracedAgentLoop is a bench-owned RunAgent without the fault-tolerance
// branches: Recv, step, Report, each inside a span on the agent's own track.
func tracedAgentLoop(tr *tracer, c *rcnet.AgentClient, env *netsim.RAEnv, policy rl.Agent) error {
	k := tr.track()
	for {
		id := k.begin("rcnet.Recv", 1)
		m, err := c.Recv(netTimeout)
		k.end(id)
		if err != nil {
			return err
		}
		if m.Type == rcnet.MsgShutdown {
			return nil
		}
		if m.Type != rcnet.MsgCoordination {
			continue
		}
		k.op = m.Period
		id = k.begin("rcnet.agent_step", env.Config().T)
		perf, queues, recs, err := agentStep(env, policy, m.Z, m.Y)
		k.end(id)
		if err != nil {
			return err
		}
		id = k.begin("rcnet.Report", 1)
		err = c.Report(m.Period, perf, queues, recs)
		k.end(id)
		if err != nil {
			return err
		}
	}
}

// remoteReplay is the bench-owned coordinator loop over a live hub:
// Broadcast, CollectReportsInto, merge, Update, log.
type remoteReplay struct {
	*recorder
	hub      *rcnet.Hub
	interval int
}

func (r *remoteReplay) period(k *track, p int) (*core.History, error) {
	k.op = p
	defer k.end(k.begin("core.remote_period", 1))
	coord := r.sys.Coordinator()

	id := k.begin("admm.ZY", 2)
	z, y := coord.Z(), coord.Y()
	k.end(id)
	id = k.begin("rcnet.Broadcast", r.J)
	err := r.hub.Broadcast(p, z, y)
	k.end(id)
	if err != nil {
		return nil, err
	}
	reports := make([]rcnet.Envelope, r.J)
	id = k.begin("rcnet.CollectReportsInto", r.J)
	_, err = r.hub.CollectReportsInto(p, netTimeout, reports, make([]bool, r.J))
	k.end(id)
	if err != nil {
		return nil, err
	}
	h := r.newHistory(k)

	perf := perfGrid(r.I, r.J)
	for j, rep := range reports {
		if len(rep.Perf) != r.I || len(rep.Intervals) != r.T {
			return nil, fmt.Errorf("RA %d reported %d slices / %d intervals, want %d / %d", j, len(rep.Perf), len(rep.Intervals), r.I, r.T)
		}
		for i := range perf {
			perf[i][j] = rep.Perf[i]
		}
	}
	for t := 0; t < r.T; t++ {
		interval := r.interval
		r.interval++
		id = k.begin("monitor.Record", 2*r.J*r.I)
		for j := range reports {
			rec := reports[j].Intervals[t]
			for i := 0; i < r.I; i++ {
				if err := r.record(interval, j, i, rec.Perf[i], rec.Queues[i]); err != nil {
					return nil, err
				}
			}
		}
		k.end(id)
		id = k.begin("core.merge", r.J)
		sums := newIntervalSums(r.I)
		for j := range reports {
			rec := reports[j].Intervals[t]
			addTo(&sums, rec.Perf, rec.Violation, rec.Effective)
		}
		k.end(id)
		if err := r.commitInterval(k, h, sums); err != nil {
			return nil, err
		}
	}
	if err := r.finishPeriod(k, h, perf); err != nil {
		return nil, err
	}
	r.hub.FinishPeriod(p)
	return h, nil
}

// trainReplay is System.Train's shared-agent path re-assembled from the rl
// and netsim layers: the same environment and agent seeds, then the DDPG
// interaction loop with one span per call.
type trainReplay struct {
	env   *netsim.RAEnv
	agent *ddpg.Agent
}

func newTrainReplay(cfg core.Config) (*trainReplay, error) {
	envCfg := cfg.EnvTemplate
	envCfg.ObserveQueue = true
	envCfg.TrainCoordRandom = true
	envCfg.Seed = cfg.Seed + 104729
	env, err := netsim.New(envCfg)
	if err != nil {
		return nil, err
	}
	dcfg := cfg.DDPG
	dcfg.Seed = cfg.Seed
	agent, err := ddpg.New(env.StateDim(), env.ActionDim(), dcfg)
	return &trainReplay{env: env, agent: agent}, err
}

func (r *trainReplay) run(k *track, steps int) error {
	defer k.end(k.begin("rl.train_run", steps))
	state := r.env.Reset()
	for i := 0; i < steps; i++ {
		id := k.begin("rl.ActExplore", 1)
		action := r.agent.ActExplore(state)
		k.end(id)
		id = k.begin("netsim.Step", 1)
		next, reward, done := r.env.Step(action)
		k.end(id)
		id = k.begin("rl.Observe", 1)
		r.agent.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done})
		k.end(id)
		id = k.begin("rl.Update", 1)
		err := r.agent.Update()
		k.end(id)
		if err != nil {
			return err
		}
		if state = next; done {
			state = r.env.Reset()
		}
	}
	return nil
}

// admitTrainReplay requires the replay's trained actor to equal the one
// System.Train produced for the same config, weight for weight.
func admitTrainReplay(r *trainReplay, sys *core.System) error {
	actor, err := sys.Actor(0)
	if err != nil {
		return err
	}
	want, got := actor.FlattenParams(), r.agent.Actor().FlattenParams()
	if len(want) != len(got) {
		return fmt.Errorf("train replay rejected: %d actor weights, System.Train has %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("train replay rejected: actor weight %d differs from System.Train's", i)
		}
	}
	return nil
}
