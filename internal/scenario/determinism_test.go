package scenario

import (
	"reflect"
	"sync/atomic"
	"testing"

	"edgeslice/internal/core"
)

// exactHistory returns an empty exact History of spec's shape, the one a
// test passes runReplica to read the replica's records afterwards.
func exactHistory(spec Spec) *core.History {
	return core.NewHistory(len(spec.Slices), spec.NumRAs, spec.T)
}

// shrunk returns a CI-scale copy of a built-in scenario: fewer periods and
// a tiny training budget so the learning engine check stays fast.
func shrunk(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Periods > 3 {
		spec.Periods = 3
	}
	// Drop events outside the shrunk horizon; teardown-before-admit and
	// recover-before-degrade pairs would otherwise break validation.
	horizon := spec.Periods * spec.T
	var events []Event
	for _, ev := range spec.Events {
		if ev.At < horizon {
			events = append(events, ev)
		}
	}
	spec.Events = events
	return spec
}

// TestEngineDeterminismAcrossWorkers is the scenario half of the
// determinism suite: for built-in scenarios, a replica's full History at
// workers ∈ {4, NumRAs} must be bit-identical to the serial engine's (one
// worker), and the aggregated summaries must match too.
func TestEngineDeterminismAcrossWorkers(t *testing.T) {
	for _, name := range []string{"flash-crowd", "heterogeneous-mix"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := shrunk(t, name)
			algo := spec.Algorithms[0]
			var trainings atomic.Int64

			hSerial := exactHistory(spec)
			if _, err := new(replicaWorker).runReplica(spec, algo, 0, nil, &trainings, Options{Workers: 1}, hSerial); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{4, spec.NumRAs} {
				hGot := exactHistory(spec)
				if _, err := new(replicaWorker).runReplica(spec, algo, 0, nil, &trainings, Options{Workers: workers}, hGot); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(hSerial, hGot) {
					t.Errorf("%s: history at workers=%d differs from serial", name, workers)
				}
			}

			serialSum, err := Run(spec, Options{Replicas: 2, Parallel: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{4, spec.NumRAs} {
				gotSum, err := Run(spec, Options{Replicas: 2, Parallel: 2, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serialSum, gotSum) {
					t.Errorf("%s: summary at workers=%d differs from serial:\n serial  %+v\n batched %+v",
						name, workers, serialSum, gotSum)
				}
			}
		})
	}
}

// TestEngineDeterminismLearning runs the determinism check on a learning
// algorithm with a tiny training budget (warm-started so the agent trains
// once), proving the batched inference path acts
// bit-identically to the shared serial agent.
func TestEngineDeterminismLearning(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small DDPG agent")
	}
	spec := shrunk(t, "flash-crowd")
	spec.Algorithms = []string{"edgeslice"}
	spec.TrainSteps = 600

	serial, err := Run(spec, Options{Replicas: 2, Parallel: 2, Workers: 1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(spec, Options{Replicas: 2, Parallel: 2, Workers: spec.NumRAs, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, got) {
		t.Errorf("learning summary differs across worker counts:\n serial  %+v\n batched %+v", serial, got)
	}
}
