package main

import (
	"math"
	"sort"
)

// metricDef mirrors one metric entry of BENCHMARK.json. Bound is the share
// of the parent's median an end-to-end metric may worsen by before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Workload names, in the order they run.
const (
	wlLocalInfer = "local-infer-2048"
	wlLocalStep  = "local-step-2048"
	wlRemote     = "remote-tcp-32"
	wlTrain      = "train-ddpg"
	wlSweep      = "sweep-warm"
)

// workloadWhy records why each workload exists; BENCHMARK.json carries the
// same text and bench_test.go keeps the two in step.
var workloadWhy = []struct{ Name, Why string }{
	{wlLocalInfer, "2048 RAs under one shared 2x128 actor on the batched engine: the wide forward is about half the period, so nn/rl changes show here"},
	{wlLocalStep, "same shape with the TARO baseline (no network): all netsim step + core record/merge + monitor + admm, so an inference change must show nothing here"},
	{wlRemote, "32 agents over loopback TCP with the binary codec and an on-disk history log: the wire path and the fixed per-period cost dominate at small J"},
	{wlTrain, "System.Train of 2000 DDPG steps on a fresh 2-RA system: the same nn/rl/netsim layers used forward and backward, what every figure regeneration waits for"},
	{wlSweep, "warm-started heterogeneous-mix replica sweeps from a primed checkpoint store: per-system and per-period fixed cost of many tiny systems in parallel"},
}

func workloadNames() []string {
	out := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		out[i] = w.Name
	}
	return out
}

// endToEnd is what a user of the system waits for or pays. failed_share is
// not listed: it must be zero on a healthy run, so it travels as the
// attempted/failed counts of every result instead of as a bounded metric.
// The bounds follow the interquartile spread seen over ten seeds per
// workload, three times over, on the shared 2-core box the baseline was
// taken on: allocation counts spread 0.1 %, KiB 1.5 %, and wall-clock times
// 4 % in a quiet quarter of an hour but 13 % when the host drifts under
// other tenants, which is why times get the widest bound the contract
// allows. The allocation counts are the sharp gate.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// setupFloorS is the absolute slack -repeat grants setup_s on top of its
// relative bound: the cheapest set-ups are tens of milliseconds, where a
// scheduler hiccup is a large share.
const setupFloorS = 0.25

// perLayer is measured only in the traced pass, from outside each layer:
// spans around exported calls of the layer replay, and probes that time one
// exported call in a loop.
var perLayer = []metricDef{
	{"core.replay_period_ms", "ms", "lower", 0},
	{"core.engine_residual_ms", "ms", "lower", 0},
	{"core.serial_period_ms", "ms", "lower", 0},
	{"core.parallel_period_ms", "ms", "lower", 0},
	{"core.batched_period_ms", "ms", "lower", 0},
	{"core.period_ms_p95", "ms", "lower", 0},
	{"core.history_add_us", "us", "lower", 0},
	{"core.histlog_append_us", "us", "lower", 0},
	{"core.histlog_replay_ms", "ms", "lower", 0},
	{"core.allocs_per_ra_period", "count", "lower", 0},
	{"core.heap_peak_mb", "MiB", "lower", 0},
	{"netsim.state_ns", "ns", "lower", 0},
	{"netsim.step_ns", "ns", "lower", 0},
	{"netsim.step_allocs", "count", "lower", 0},
	{"netsim.share", "share", "lower", 0},
	{"nn.forward_batch_ns_per_row", "ns", "lower", 0},
	{"nn.forward_batch_allocs", "count", "lower", 0},
	{"nn.fwd_bwd_us", "us", "lower", 0},
	{"rl.act_batch_ns_per_row", "ns", "lower", 0},
	{"rl.act_ns", "ns", "lower", 0},
	{"rl.update_us", "us", "lower", 0},
	{"rl.observe_ns", "ns", "lower", 0},
	{"rl.train_steps_per_s", "1/s", "higher", 0},
	{"rl.eval_system_perf", "perf", "higher", 0},
	{"baseline.taro_ns", "ns", "lower", 0},
	{"admm.update_us", "us", "lower", 0},
	{"admm.update_allocs", "count", "lower", 0},
	{"monitor.record_ns", "ns", "lower", 0},
	{"telemetry.log_append_ns", "ns", "lower", 0},
	{"rcnet.broadcast_ms", "ms", "lower", 0},
	{"rcnet.collect_wait_ms", "ms", "lower", 0},
	{"rcnet.agent_step_ms", "ms", "lower", 0},
	{"rcnet.agent_report_us", "us", "lower", 0},
	{"rcnet.echo_binary_period_ms", "ms", "lower", 0},
	{"rcnet.echo_json_period_ms", "ms", "lower", 0},
	{"rcnet.bytes_per_period", "B", "lower", 0},
	{"rcnet.frames_per_period", "count", "lower", 0},
	{"rcnet.reports_dropped", "count", "lower", 0},
	{"scenario.replica_ms_p50", "ms", "lower", 0},
	{"scenario.pool_busy_share", "share", "higher", 0},
	{"ckpt.read_restore_ms", "ms", "lower", 0},
	{"ckpt.bytes", "B", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
}

// scale sizes every workload. Full is what BENCHMARK.json measures; short
// keeps the same code paths and metric names at a size that runs in about
// two seconds per workload, and its numbers are never comparable with full.
type scale struct {
	Name          string `json:"scale"`
	RAs           int    `json:"local_ras"`
	Agents        int    `json:"remote_agents"`
	TrainSteps    int    `json:"train_steps"`
	SweepReplicas int    `json:"sweep_replicas"`
	SweepPeriods  int    `json:"sweep_periods"`
	EnginePeriods int    `json:"engine_periods"`
	ProbeIters    int    `json:"probe_iters"`
}

var (
	fullScale  = scale{"full", 2048, 32, 2000, 8, 100, 5, 20000}
	shortScale = scale{"short", 256, 8, 400, 2, 20, 3, 2000}
)

// sample is one reported number with the count of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// quantile returns the q-quantile of xs by linear interpolation; xs need
// not be sorted and is left untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
