package scenario

import (
	"runtime"
	"testing"
)

// TestReplicaAllocsBounded is the scenario half of the allocation gates: a
// warm sweep of heterogeneous-mix, edgeslice, taro and equal, 8 replicas of
// 100 periods each on 2 workers, from a checkpoint store one training
// primes, allocates per replica at most replicaAllocs times — what a
// replica cost when each built its own System and read the whole
// checkpoint once per sweep (13,283 before the replica period stopped
// allocating) — and at most replicaBytes: each worker resets one System,
// and the sweep keeps only the store's acting network.
func TestReplicaAllocsBounded(t *testing.T) {
	const replicaAllocs, replicaBytes = 114, 12 << 10
	spec, err := Get("heterogeneous-mix")
	if err != nil {
		t.Fatal(err)
	}
	spec.Algorithms = []string{"edgeslice", "taro", "equal"}
	spec.Periods = 100
	spec.TrainSteps = 400
	opts := Options{Replicas: 8, Parallel: 2, WarmStart: true, CheckpointDir: t.TempDir()}
	replicas := float64(len(spec.Algorithms) * opts.Replicas)
	sweep := func() {
		if _, err := Run(spec, opts); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // primes the store
	if allocs := testing.AllocsPerRun(3, sweep) / replicas; allocs > replicaAllocs {
		t.Errorf("a warm replica allocates %.1f times, want <= %d", allocs, replicaAllocs)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		sweep()
	}
	runtime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / replicas; bytes > replicaBytes {
		t.Errorf("a warm replica allocates %.0f bytes, want <= %d", bytes, replicaBytes)
	}
}
