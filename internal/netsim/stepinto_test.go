package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fifoRef is the per-task append-and-compact FIFO the backlog count
// replaced, kept as the reference SliceQueue must match op for op.
type fifoRef struct {
	arrivals []int
	head     int
	carry    float64
}

func (q *fifoRef) Len() int { return len(q.arrivals) - q.head }

func (q *fifoRef) Arrive(n, now int) {
	for i := 0; i < n; i++ {
		q.arrivals = append(q.arrivals, now)
	}
}

func (q *fifoRef) Serve(rate float64) int {
	if rate < 0 {
		rate = 0
	}
	q.carry += rate
	n := int(q.carry)
	if avail := q.Len(); n > avail {
		n = avail
	}
	if n <= 0 {
		if q.carry > rate {
			q.carry = rate
		}
		return 0
	}
	q.carry -= float64(n)
	q.head += n
	if q.head > 1024 && q.head*2 > len(q.arrivals) {
		q.arrivals = append([]int(nil), q.arrivals[q.head:]...)
		q.head = 0
	}
	return n
}

// TestSliceQueueMatchesFIFO drives the backlog count and the reference FIFO
// through the same random arrive/serve/reset sequences — with and without
// the environment's MaxQueue ingress drop — and requires the same served
// count and length after every op.
func TestSliceQueueMatchesFIFO(t *testing.T) {
	const maxQueue = 40
	for seed := int64(1); seed <= 20; seed++ {
		for _, limit := range []int{maxQueue, 5000} { // 5000 keeps the reference's memory sane
			rng := rand.New(rand.NewSource(seed))
			var q SliceQueue
			ref := &fifoRef{}
			for now := 0; now < 6000; now++ {
				switch op := rng.Intn(100); {
				case op == 0:
					q = SliceQueue{}
					*ref = fifoRef{}
				case op < 50:
					n := rng.Intn(30) - 2 // includes n <= 0
					if over := ref.Len() + n - limit; over > 0 {
						n -= over
					}
					q.Arrive(n)
					ref.Arrive(n, now)
				default:
					rate := rng.Float64()*20 - 1 // includes negative rates
					if got, want := q.Serve(rate), ref.Serve(rate); got != want {
						t.Fatalf("seed %d limit %d now %d: served %d, want %d", seed, limit, now, got, want)
					}
				}
				if q.Len() != ref.Len() {
					t.Fatalf("seed %d limit %d now %d: len %d, want %d", seed, limit, now, q.Len(), ref.Len())
				}
			}
		}
	}
}

// sameBits compares two step results field by field on the float bit
// patterns (so −0 ≠ +0 and NaN == NaN).
func sameBits(t *testing.T, what string, got, want StepResult) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	flat := func(e [][NumResources]float64) []float64 {
		var out []float64
		for _, row := range e {
			out = append(out, row[:]...)
		}
		return out
	}
	if !reflect.DeepEqual(bits(got.Perf), bits(want.Perf)) ||
		!reflect.DeepEqual(bits(got.ServiceTimes), bits(want.ServiceTimes)) ||
		!reflect.DeepEqual(bits(flat(got.Effective)), bits(flat(want.Effective))) ||
		!reflect.DeepEqual(got.QueueLens, want.QueueLens) ||
		!reflect.DeepEqual(got.Served, want.Served) ||
		!reflect.DeepEqual(got.Arrived, want.Arrived) ||
		math.Float64bits(got.Violation) != math.Float64bits(want.Violation) ||
		math.Float64bits(got.Reward) != math.Float64bits(want.Reward) {
		t.Fatalf("%s: StepInto %+v != StepInterval %+v", what, got, want)
	}
}

// TestStepIntoMatchesStepInterval steps twin environments — one through the
// allocating wrapper, one through StepInto with a single reused result —
// under seeded random actions (including over-capacity and negative
// shares), a NaN and a short action rejected by the StepInto twin alone,
// and a mid-run capacity change; results and all subsequent state must
// agree bitwise, so a rejected action leaves the environment untouched.
func TestStepIntoMatchesStepInterval(t *testing.T) {
	t.Run("analytic", func(t *testing.T) {
		cfg := DefaultExperimentConfig()
		cfg.Seed = 42
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(cfg)
		a.Reset()
		b.Reset()
		rng := rand.New(rand.NewSource(7))
		action := make([]float64, a.ActionDim())
		var res StepResult // reused across every StepInto
		for step := 0; step < 400; step++ {
			for i := range action {
				action[i] = rng.Float64()*1.7 - 0.2
			}
			switch step {
			case 100:
				bad := append([]float64(nil), action...)
				bad[2] = math.NaN()
				if err := b.StepInto(bad, &res); err == nil {
					t.Fatal("NaN action accepted")
				}
				if err := b.StepInto(action[:3], &res); err == nil {
					t.Fatal("short action accepted")
				}
			case 200:
				if err := a.SetCapacityScale(0.3); err != nil {
					t.Fatal(err)
				}
				_ = b.SetCapacityScale(0.3)
			}
			want, err := a.StepInterval(action)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.StepInto(action, &res); err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("step %d", step), res, want)
			if !reflect.DeepEqual(a.State(), b.State()) || !reflect.DeepEqual(a.QueueLens(), b.QueueLens()) || a.c.ras[0].interval != b.c.ras[0].interval {
				t.Fatalf("step %d: environment state diverged", step)
			}
			if step%10 == 9 {
				pp := make([]float64, cfg.NumSlices)
				b.PeriodPerfInto(pp)
				if want := a.PeriodPerf(); !reflect.DeepEqual(pp, want) {
					t.Fatalf("step %d: PeriodPerfInto %v, PeriodPerf %v", step, pp, want)
				}
			}
		}
	})
}

// TestStepIntoWarmAllocFree pins the point of StepInto: once the result has
// been sized, a step allocates nothing.
func TestStepIntoWarmAllocFree(t *testing.T) {
	env, err := New(DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.Reset()
	action := make([]float64, env.ActionDim())
	for i := range action {
		action[i] = 0.4
	}
	var res StepResult
	queues := make([]int, env.Config().NumSlices)
	step := func() {
		env.QueueLensInto(queues)
		if err := env.StepInto(action, &res); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Errorf("warm StepInto allocates %v times per step, want 0", n)
	}
}
