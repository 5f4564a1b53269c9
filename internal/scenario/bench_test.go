package scenario

import (
	"io"
	"os"
	"runtime"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
)

// BenchmarkSweepWarm is the benchmark harness's sweep-warm workload at seed
// 1: heterogeneous-mix under edgeslice, taro and equal, 8 replicas of 100
// periods each, warm-started from a checkpoint store that one 2,000-step
// training primes outside the timer. One iteration is one sweep (24
// replicas, summary rendered); replicas/s is the harness's ops_per_s, so
//
//	go test ./internal/scenario -run '^$' -bench SweepWarm -cpuprofile cpu.out
//
// profiles that workload.
func BenchmarkSweepWarm(b *testing.B) {
	spec, err := Get("heterogeneous-mix")
	if err != nil {
		b.Fatal(err)
	}
	spec.Algorithms = []string{"edgeslice", "taro", "equal"}
	spec.Periods = 100
	spec.TrainSteps = 2000
	spec.Seed = 1
	opts := Options{Replicas: 8, Parallel: runtime.GOMAXPROCS(0), WarmStart: true, CheckpointDir: b.TempDir()}
	sweep := func(wantTrainings int) {
		sum, err := Run(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Trainings != wantTrainings {
			b.Fatalf("sweep trained %d times, want %d", sum.Trainings, wantTrainings)
		}
		if err := WriteSummary(io.Discard, sum); err != nil {
			b.Fatal(err)
		}
	}
	sweep(1) // primes the store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(0)
	}
	b.ReportMetric(float64(b.N*len(spec.Algorithms)*opts.Replicas)/b.Elapsed().Seconds(), "replicas/s")
}

// BenchmarkWarmLoad is what a warm sweep pays for its checkpoint before any
// replica runs: Store.Load and core.DeployCheckpoint of the edgeslice
// checkpoint BenchmarkSweepWarm primes (heterogeneous-mix, 2,000 steps,
// seed 1). B/file is the stored file's size.
func BenchmarkWarmLoad(b *testing.B) {
	spec, err := Get("heterogeneous-mix")
	if err != nil {
		b.Fatal(err)
	}
	spec.Algorithms = []string{"edgeslice"}
	spec.Periods = 100
	spec.TrainSteps = 2000
	spec.Seed = 1
	dir := b.TempDir()
	if _, err := Run(spec, Options{Replicas: 1, WarmStart: true, CheckpointDir: dir}); err != nil {
		b.Fatal(err)
	}
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil || len(keys) != 1 {
		b.Fatalf("primed store holds %v (%v), want one checkpoint", keys, err)
	}
	info, err := os.Stat(store.Path(keys[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := store.Load(keys[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.DeployCheckpoint(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(info.Size()), "B/file")
}
