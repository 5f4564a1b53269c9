package scenario

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestReplicaAllocsBounded is the scenario half of the allocation gates:
// one warm-started heterogeneous-mix EdgeSlice replica of 100 periods —
// system build, policy deploy and every period recorded into the default
// summary History — allocates at most twice the replicaAllocs measured when
// the gate was last set (13,283 before the replica period stopped
// allocating, 439 while each replica restored a full trainer and grew its
// History), and at most replicaBytes: an exact History of the run would
// add its 157 KB of records.
func TestReplicaAllocsBounded(t *testing.T) {
	const replicaAllocs, replicaBytes = 164, 64 << 10
	spec, err := Get("heterogeneous-mix")
	if err != nil {
		t.Fatal(err)
	}
	spec.Algorithms = []string{"edgeslice"}
	spec.Periods = 100
	spec.TrainSteps = 400
	opts := Options{WarmStart: true}
	var trainings atomic.Int64
	warm, err := warmCheckpoints(spec, opts, &trainings)
	if err != nil {
		t.Fatal(err)
	}
	replica := func() {
		if _, err := runReplica(spec, "edgeslice", 0, warm["edgeslice"], &trainings, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, replica)
	if allocs > 2*replicaAllocs {
		t.Errorf("a warm-started replica of %d periods allocates %v times, want <= %d", spec.Periods, allocs, 2*replicaAllocs)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		replica()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > replicaBytes {
		t.Errorf("a warm-started replica of %d periods allocates %d bytes, want <= %d", spec.Periods, bytes, replicaBytes)
	}
}
