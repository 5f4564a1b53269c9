package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"edgeslice/internal/traffic"
)

// requireChunkMatchesSolo steps one chunk over cfgs and, beside it, one
// environment per config through New, under the same seeded random actions
// (over-capacity and negative shares included). hook runs before every
// interval and may change both sides alike. Every interval's performance,
// effective shares and violation, and at the end every RA's queues, period
// performance and PCG state, must be bit-equal.
func requireChunkMatchesSolo(t *testing.T, cfgs []Config, steps int, hook func(step int, c *Chunk, solo []*RAEnv)) {
	t.Helper()
	chunks, err := NewChunks(cfgs, len(cfgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("%d configs packed into %d chunks, want 1", len(cfgs), len(chunks))
	}
	c, n, I := chunks[0], len(cfgs), cfgs[0].NumSlices
	shared := true
	for _, cfg := range cfgs {
		shared = shared && &cfg.Sources[0] == &cfgs[0].Sources[0]
	}
	if c.shared != shared {
		t.Fatalf("chunk shares arrival tables: %v, want %v", c.shared, shared)
	}
	solo := make([]*RAEnv, n)
	for r := range solo {
		if solo[r], err = New(cfgs[r]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	acts := make([][]float64, n)
	for r := range acts {
		acts[r] = make([]float64, I*NumResources)
	}
	perf, eff, viol := make([]float64, n*I), make([][NumResources]float64, n*I), make([]float64, n)
	var res StepResult
	for step := 0; step < steps; step++ {
		for _, a := range acts {
			for k := range a {
				a[k] = rng.Float64()*1.7 - 0.2
			}
		}
		if hook != nil {
			hook(step, c, solo)
		}
		if r, err := c.StepInto(acts, perf, eff, viol); err != nil {
			t.Fatalf("step %d: RA %d: %v", step, r, err)
		}
		for r, env := range solo {
			if err := env.StepInto(acts[r], &res); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < I; i++ {
				x := r*I + i
				if math.Float64bits(perf[x]) != math.Float64bits(res.Perf[i]) || eff[x] != res.Effective[i] {
					t.Fatalf("step %d RA %d slice %d: chunk perf %v shares %v, alone %v %v", step, r, i, perf[x], eff[x], res.Perf[i], res.Effective[i])
				}
			}
			if math.Float64bits(viol[r]) != math.Float64bits(res.Violation) {
				t.Fatalf("step %d RA %d: chunk violation %v, alone %v", step, r, viol[r], res.Violation)
			}
		}
	}
	for r, env := range solo {
		got, want := fmt.Sprint(c.Env(r).QueueLens(), c.Env(r).PeriodPerf()), fmt.Sprint(env.QueueLens(), env.PeriodPerf())
		if got != want || c.ras[r].pcg != env.c.ras[0].pcg {
			t.Errorf("RA %d: chunk ends at queues and period perf %s, alone at %s (PCG states equal: %v)",
				r, got, want, c.ras[r].pcg == env.c.ras[0].pcg)
		}
	}
}

// chunkConfigs returns n default configs seeded 1…n that share one Sources
// slice, as template RAs do.
func chunkConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for r := range cfgs {
		cfgs[r] = DefaultExperimentConfig()
		cfgs[r].Seed = int64(r + 1)
		cfgs[r].TrainCoordRandom = false
		cfgs[r].Sources = cfgs[0].Sources
	}
	return cfgs
}

// TestChunkMatchesSoloEnvs is the chunk's bit-identity property: stepping
// RAs together in a chunk, shared arrival tables included, gives each RA
// what stepping it alone gives.
func TestChunkMatchesSoloEnvs(t *testing.T) {
	const n, steps = 6, 300
	t.Run("shared sources", func(t *testing.T) {
		requireChunkMatchesSolo(t, chunkConfigs(n), steps, nil)
	})
	t.Run("shared sources crossing λ = 30", func(t *testing.T) {
		cfgs := chunkConfigs(n)
		src := []traffic.Source{cfgs[0].Sources[0], traffic.VariableSource{Lo: 4, Hi: 34, BlockLen: 7, Seed: 5}}
		for r := range cfgs {
			cfgs[r].Sources = src
		}
		requireChunkMatchesSolo(t, cfgs, steps, nil)
	})
	t.Run("per-RA sources, one crossing λ = 30", func(t *testing.T) {
		cfgs := chunkConfigs(n)
		for r := range cfgs {
			cfgs[r].Sources = []traffic.Source{
				traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: int64(11 + r)},
				traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: int64(23 + r)},
			}
		}
		cfgs[3].Sources[1] = traffic.VariableSource{Lo: 4, Hi: 34, BlockLen: 7, Seed: 3}
		requireChunkMatchesSolo(t, cfgs, steps, nil)
	})
	t.Run("capacity scale 0.3 and training coordination", func(t *testing.T) {
		cfgs := chunkConfigs(n)
		for r := range cfgs {
			cfgs[r].TrainCoordRandom = true
		}
		requireChunkMatchesSolo(t, cfgs, steps, func(step int, c *Chunk, solo []*RAEnv) {
			if step == 50 {
				if err := c.Env(2).SetCapacityScale(0.3); err != nil {
					t.Fatal(err)
				}
				_ = solo[2].SetCapacityScale(0.3)
			}
		})
	})
	t.Run("service-time metric", func(t *testing.T) {
		cfgs := chunkConfigs(n)
		for r := range cfgs {
			cfgs[r].Perf = PerfServiceTime
		}
		requireChunkMatchesSolo(t, cfgs, steps, nil)
	})
	t.Run("backlog past the perf table", func(t *testing.T) {
		requireChunkMatchesSolo(t, chunkConfigs(n), steps, func(step int, c *Chunk, solo []*RAEnv) {
			if step == 100 {
				over := c.cfg.MaxQueue + 25
				c.Backlog[4*c.cfg.NumSlices] += over
				solo[4].c.Backlog[0] += over
			}
		})
	})
	t.Run("view stepped out of lockstep", func(t *testing.T) {
		action := make([]float64, 2*NumResources)
		var got, want StepResult
		requireChunkMatchesSolo(t, chunkConfigs(n), steps, func(step int, c *Chunk, solo []*RAEnv) {
			if step != 120 && step != 121 {
				return
			}
			for _, r := range []int{0, 5} { // RA 0's interval is the one the chunk shares
				for k := range action {
					action[k] = float64(step+r+k) / 10
				}
				if err := c.Env(r).StepInto(action, &got); err != nil {
					t.Fatal(err)
				}
				if err := solo[r].StepInto(action, &want); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("view of RA %d at step %d", r, step), got, want)
			}
		})
	})
}

// TestHugeArrivalRateFillsToMaxQueue: a rate far past the normal branch's
// int range draws MaxInt arrivals, which the ingress guard cuts to exactly
// MaxQueue − backlog, through a chunk step and through a view alike.
func TestHugeArrivalRateFillsToMaxQueue(t *testing.T) {
	cfgs := chunkConfigs(3)
	src := []traffic.Source{traffic.ConstantSource{Lambda: 1e300}, traffic.ConstantSource{Lambda: math.Inf(1)}}
	for r := range cfgs {
		cfgs[r].Sources, cfgs[r].MinShare = src, 0
	}
	chunks, err := NewChunks(cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, I, maxQ := chunks[0], cfgs[0].NumSlices, cfgs[0].MaxQueue
	c.Backlog[1*I] = 7
	zero := make([]float64, I*NumResources)
	perf, eff, viol := make([]float64, 3*I), make([][NumResources]float64, 3*I), make([]float64, 3)
	if _, err := c.StepInto([][]float64{zero, zero, zero}, perf, eff, viol); err != nil {
		t.Fatal(err)
	}
	for x, l := range c.Backlog {
		if l != maxQ {
			t.Errorf("chunk step: RA %d slice %d backlog %d, want MaxQueue %d", x/I, x%I, l, maxQ)
		}
	}

	env, err := New(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	env.c.Backlog[0] = 11
	res, err := env.StepInterval(zero)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{maxQ - 11, maxQ} {
		if res.Arrived[i] != want || res.QueueLens[i] != maxQ {
			t.Errorf("view: slice %d arrived %d to a queue of %d, want %d and %d", i, res.Arrived[i], res.QueueLens[i], want, maxQ)
		}
	}
}

// TestChunksWithComparesEveryField guards NewChunks' grouping: configs that
// differ in any field but Seed and Sources must not share a chunk, so a
// field added to Config without a comparison fails here.
func TestChunksWithComparesEveryField(t *testing.T) {
	base := DefaultExperimentConfig()
	other := base
	other.Seed, other.Sources = 99, []traffic.Source{traffic.ConstantSource{Lambda: 3}, traffic.ConstantSource{Lambda: 4}}
	if !base.chunksWith(&other) {
		t.Fatal("configs differing only in Seed and Sources do not chunk together")
	}
	typ := reflect.TypeOf(base)
	for f := 0; f < typ.NumField(); f++ {
		name := typ.Field(f).Name
		if name == "Seed" || name == "Sources" {
			continue
		}
		mod := base
		mod.Apps = append([]AppProfile(nil), base.Apps...)
		v := reflect.ValueOf(&mod).Elem().Field(f)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Array:
			v.Index(0).SetFloat(v.Index(0).Float() + 1)
		case reflect.Slice:
			v.Index(0).Field(1).SetInt(v.Index(0).Field(1).Int() + 1)
		default:
			t.Fatalf("field %s: no perturbation for kind %v", name, v.Kind())
		}
		if base.chunksWith(&mod) {
			t.Errorf("configs differing in %s chunk together", name)
		}
	}
}
