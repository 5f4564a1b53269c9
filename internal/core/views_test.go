package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
)

// TestConcurrentEnvViews steps every RA's System.Env(j) view on its own
// goroutine for several periods, as remote agents hosted by one agent
// System do, and requires each RA's stream — every interval's StepResult and
// every period's performance — to equal a one-goroutine run's. Under -race
// it also checks that views of one chunk write disjoint memory.
func TestConcurrentEnvViews(t *testing.T) {
	const periods = 4
	cfg := execTestConfig(AlgoTARO)
	cfg.NumRAs = chunkRAs + 3 // two chunks
	I := cfg.EnvTemplate.NumSlices
	run := func(concurrent bool) [][]uint64 {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][]uint64, cfg.NumRAs)
		step := func(j int) {
			env := s.Env(j)
			var res netsim.StepResult
			act, z, y, perf := make([]float64, env.ActionDim()), make([]float64, I), make([]float64, I), make([]float64, I)
			record := func(vs ...float64) {
				for _, v := range vs {
					streams[j] = append(streams[j], math.Float64bits(v))
				}
			}
			for p := 0; p < periods; p++ {
				for i := range z {
					z[i], y[i] = -float64(10*p+j+i), float64(p-i)
				}
				if err := env.SetCoordination(z, y); err != nil {
					t.Error(err)
					return
				}
				for range cfg.EnvTemplate.T {
					if err := baseline.TAROInto(act, env.QueueLens()); err != nil {
						t.Error(err)
						return
					}
					if err := env.StepInto(act, &res); err != nil {
						t.Error(err)
						return
					}
					record(res.Perf...)
					record(res.ServiceTimes...)
					for i := range res.Effective {
						record(res.Effective[i][:]...)
						record(float64(res.QueueLens[i]), float64(res.Served[i]), float64(res.Arrived[i]))
					}
					record(res.Violation, res.Reward)
				}
				env.PeriodPerfInto(perf)
				record(perf...)
			}
		}
		var wg sync.WaitGroup
		for j := range cfg.NumRAs {
			if !concurrent {
				step(j)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				step(j)
			}()
		}
		wg.Wait()
		return streams
	}
	want, got := run(false), run(true)
	for j := range want {
		if !reflect.DeepEqual(got[j], want[j]) {
			t.Errorf("RA %d: stream stepped on its own goroutine differs from the one-goroutine run", j)
		}
	}
}

// TestNewSystemAllocsPerRA pins NewSystem's setup cost at 2048 RAs: the RAs
// live in chunk columns, so building them allocates at most twice per RA.
func TestNewSystemAllocsPerRA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algo = AlgoTARO
	cfg.NumRAs = 2048
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewSystem(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perRA := allocs / float64(cfg.NumRAs); perRA > 2 {
		t.Errorf("NewSystem at %d RAs allocates %v times, %.2f per RA; want at most 2", cfg.NumRAs, allocs, perRA)
	} else {
		t.Logf("NewSystem at %d RAs: %v allocations, %.3f per RA", cfg.NumRAs, allocs, perRA)
	}
}
