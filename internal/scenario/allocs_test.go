package scenario

import (
	"sync/atomic"
	"testing"
)

// TestReplicaAllocsBounded is the scenario half of the allocation gates:
// one warm-started heterogeneous-mix EdgeSlice replica of 100 periods —
// system build, policy deploy and every period recorded into one exact
// History — allocates at most twice the replicaAllocs measured when the gate
// was last set (13,283 before the replica period stopped allocating, 439
// while each replica restored a full trainer and grew its History).
func TestReplicaAllocsBounded(t *testing.T) {
	const replicaAllocs = 164
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
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := runReplica(spec, "edgeslice", 0, warm["edgeslice"], &trainings, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2*replicaAllocs {
		t.Errorf("a warm-started replica of %d periods allocates %v times, want <= %d", spec.Periods, allocs, 2*replicaAllocs)
	}
}
