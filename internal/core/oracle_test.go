package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"edgeslice/internal/baseline"
	"edgeslice/internal/mathutil"
	"edgeslice/internal/netsim"
	"edgeslice/internal/qp"
	"edgeslice/internal/rl"
)

// The oracle is the engines' reference: Algorithm 1 and the RA model of
// Sec. VI-B written from the paper on plain slices. It shares no code with
// the engines — no Chunk, SliceQueue, RAEnv step or state, admm.Coordinator,
// periodWS, runPeriods, fold, merge or commit — and uses only primitives
// pinned on their own: PCG seeding and Poisson inversion, the sources'
// rates, the half-space projection, the baselines' actions, a policy's
// single-row Act and the perf functions. Its contract, which every engine
// meets bit for bit: sums run over RAs in ascending order, and the mean
// usage divides the sum over RAs by J once.

// capEvent scales RA ra's capacity in every domain from period on.
type capEvent struct {
	period, ra int
	scale      float64
}

// oracleSeen is what an oracle run met, for the coverage check.
type oracleSeen struct {
	maxLambda float64 // the largest arrival rate drawn from
	zyInside  bool    // an agent observed a non-zero z − y inside the clamp
}

// oracleRA is one resource autonomy: its slice queues (backlog and
// fractional service credit), its PCG stream and a Poisson sampler per
// slice.
type oracleRA struct {
	env      netsim.Config
	demand   [][netsim.NumResources]float64
	perf     netsim.PerfFunc
	pcg      rand.PCG
	norm     *rand.Rand // over pcg: the λ ≥ 30 normal branch
	poisson  []mathutil.Poisson
	backlog  []int
	carry    []float64
	capScale float64
}

// newOracleRA builds RA j of cfg as NewSystem configures it: its EnvPerRA
// entry or the template, observing queues unless the NT ablation, seeded
// from Seed + j·7919.
func newOracleRA(cfg Config, j int) *oracleRA {
	env := cfg.EnvTemplate
	if cfg.EnvPerRA != nil && cfg.EnvPerRA[j] != nil {
		env = *cfg.EnvPerRA[j]
	}
	env.ObserveQueue = cfg.Algo != AlgoEdgeSliceNT
	env.Seed = cfg.Seed + int64(j)*7919
	I := env.NumSlices
	ra := &oracleRA{env: env, backlog: make([]int, I), carry: make([]float64, I), capScale: 1}
	mathutil.SeedPCG(&ra.pcg, env.Seed)
	ra.norm = rand.New(&ra.pcg)
	for _, app := range env.Apps {
		ra.demand = append(ra.demand, app.Demand())
		ra.poisson = append(ra.poisson, mathutil.NewPoisson(make([]float64, mathutil.PoissonTableLen)))
	}
	ra.perf = netsim.QueuePerf(env.Alpha)
	if env.Perf == netsim.PerfServiceTime {
		ra.perf = netsim.ServiceTimePerf(env.ServiceTimeScale)
	}
	return ra
}

// observe is the agent's state (Eq. 13): each queue length over QueueNorm
// (not in the NT ablation), then each z − y clamped to the support of the
// training draws, [−1.5·CoordSpan, 0.5·CoordSpan], over CoordNorm.
func (ra *oracleRA) observe(zy []float64, seen *oracleSeen) []float64 {
	var s []float64
	if ra.env.ObserveQueue {
		for _, l := range ra.backlog {
			s = append(s, float64(l)/ra.env.QueueNorm)
		}
	}
	lo, hi := -1.5*ra.env.CoordSpan, 0.5*ra.env.CoordSpan
	for _, v := range zy {
		seen.zyInside = seen.zyInside || (v != 0 && v > lo && v < hi)
		s = append(s, mathutil.Clamp(v, lo, hi)/ra.env.CoordNorm)
	}
	return s
}

// step advances the RA through global interval n under action a and
// returns U per slice, the effective shares and the violation of
// constraint (3). Per domain, the clamped requests are scaled down
// proportionally when they oversubscribe it, then every slice keeps its
// MinShare floor and splits the rest by the scaled requests. Per slice,
// Poisson arrivals join the backlog up to MaxQueue, the bottleneck
// domain's rate (capacity × scale / demand) adds to the service credit,
// whole tasks leave while credit and backlog last (an idle queue banks at
// most one interval's rate), and U is the perf function of what is left.
func (ra *oracleRA) step(a []float64, n int, seen *oracleSeen) (u []float64, eff [][netsim.NumResources]float64, viol float64) {
	env := &ra.env
	I, K := env.NumSlices, netsim.NumResources
	eff = make([][netsim.NumResources]float64, I)
	floor := float64(I) * env.MinShare
	for k := 0; k < K; k++ {
		var sum float64
		for i := range eff {
			eff[i][k] = mathutil.Clamp(a[i*K+k], 0, 1)
			sum += eff[i][k]
		}
		viol += mathutil.PosPart(sum - 1)
		scale := 1.0
		if sum > 1 {
			scale = 1 / sum
		}
		for i := range eff {
			eff[i][k] = env.MinShare + (1-floor)*eff[i][k]*scale
		}
	}
	u = make([]float64, I)
	for i := range u {
		lam := env.Sources[i].Rate(n)
		seen.maxLambda = max(seen.maxLambda, lam)
		l := ra.backlog[i] + max(0, min(ra.poisson[i].Draw(&ra.pcg, ra.norm, lam), env.MaxQueue-ra.backlog[i]))
		rate := math.Inf(1)
		for k, d := range ra.demand[i] {
			if d > 0 {
				rate = min(rate, eff[i][k]*env.Capacity[k]*ra.capScale/d)
			}
		}
		if math.IsInf(rate, 1) {
			rate = 0
		}
		credit, served := ra.carry[i]+rate, l
		if credit < float64(l) {
			served = int(credit)
		}
		if served > 0 {
			credit -= float64(served)
			l -= served
		} else if credit > rate {
			credit = rate
		}
		ra.backlog[i], ra.carry[i] = l, credit
		serviceTime := 1e3
		if rate > 1e-3 {
			serviceTime = 1 / rate
		}
		u[i] = ra.perf(float64(l), serviceTime)
	}
	return u, eff, viol
}

// oracleRun runs Algorithm 1 on cfg for periods periods and records every
// interval and period into h and, when non-nil, log. agents[j] is RA j's
// policy under a learning algorithm; ev, when non-nil, is a capacity event.
//
//   - Line 1: Z = Y = 0.
//   - Each interval, RAs ascending: the RA acts — its agent on its state,
//     or TARO on its queues, or EqualShare — and steps. The interval
//     records Σ_j Σ_i U, Σ_j U_i, the mean of the shares (the sum over RAs
//     divided by J once) and Σ_j violation.
//   - Each period: Σ_t U_ij, the z-update (Eq. 9: per slice, Σ_t U + y
//     projected onto Σ_j z ≥ Umin), the y-update (Eq. 10: y += Σ_t U − z),
//     the SLA check (Eq. 2: Σ_j Σ_t U_ij ≥ Umin) and the primal and dual
//     residuals ‖Σ_t U − z‖ and ‖ρ(z − z_prev)‖.
func oracleRun(t *testing.T, cfg Config, agents []rl.Agent, periods int, ev *capEvent, h *History, log *HistoryLog) oracleSeen {
	t.Helper()
	var seen oracleSeen
	I, J, T, K := cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T, netsim.NumResources
	umin := cfg.Umin
	if umin == nil {
		umin = slices.Repeat([]float64{PaperUmin}, I)
	}
	grid := func(rows, cols int) [][]float64 {
		g := make([][]float64, rows)
		for r := range g {
			g[r] = make([]float64, cols)
		}
		return g
	}
	ras := make([]*oracleRA, J)
	for j := range ras {
		ras[j] = newOracleRA(cfg, j)
	}
	z, y := grid(I, J), grid(I, J)
	check := func(err error) {
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
	}
	for p := 0; p < periods; p++ {
		if ev != nil && ev.period == p {
			ras[ev.ra].capScale = ev.scale
		}
		U := grid(I, J)
		for tt := 0; tt < T; tt++ {
			var sys, viol float64
			slice, usage := make([]float64, I), grid(I, K)
			for j, ra := range ras {
				act := make([]float64, I*K)
				switch {
				case cfg.Algo.IsLearning():
					zy := make([]float64, I)
					for i := range zy {
						zy[i] = z[i][j] - y[i][j]
					}
					act = agents[j].Act(ra.observe(zy, &seen))
				case cfg.Algo == AlgoEqualShare:
					baseline.EqualShareInto(act, I)
				default:
					check(baseline.TAROInto(act, ra.backlog))
				}
				u, eff, v := ra.step(act, p*T+tt, &seen)
				for i := range u {
					sys += u[i]
					slice[i] += u[i]
					for k := range usage[i] {
						usage[i][k] += eff[i][k]
					}
					U[i][j] += u[i]
				}
				viol += v
			}
			for i := range usage {
				for k := range usage[i] {
					usage[i][k] /= float64(J)
				}
			}
			check(h.AddInterval(sys, slice, usage, viol))
			if log != nil {
				check(log.LogInterval(sys, slice, usage, viol))
			}
		}
		var primal, dual float64
		sla := make([]bool, I)
		for i := range z {
			prev := slices.Clone(z[i])
			for j := range z[i] {
				z[i][j] = U[i][j] + y[i][j]
			}
			qp.ProjectHalfspaceSumGEInto(z[i], z[i], umin[i])
			var total float64
			for j := range z[i] {
				r := U[i][j] - z[i][j]
				y[i][j] += r
				primal += r * r
				d := cfg.Rho * (z[i][j] - prev[j])
				dual += d * d
				total += U[i][j]
			}
			sla[i] = total >= umin[i]
		}
		check(h.AddPeriod(U, sla, math.Sqrt(primal), math.Sqrt(dual)))
		if log != nil {
			check(log.LogPeriod(U, sla, math.Sqrt(primal), math.Sqrt(dual)))
		}
	}
	return seen
}
