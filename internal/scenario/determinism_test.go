package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"edgeslice/internal/core"
)

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
// determinism suite: for built-in scenarios, a replica's full History under
// the batched engine (workers ∈ {1, 4, NumRAs}) must be
// bit-identical to the serial engine's, and the aggregated summaries must
// match too.
func TestEngineDeterminismAcrossWorkers(t *testing.T) {
	for _, name := range []string{"flash-crowd", "heterogeneous-mix"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := shrunk(t, name)
			algo := spec.Algorithms[0]
			var trainings atomic.Int64

			_, hSerial, err := runReplica(spec, algo, 0, nil, &trainings, Options{Engine: core.EngineSerial})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, spec.NumRAs} {
				_, hGot, err := runReplica(spec, algo, 0, nil, &trainings,
					Options{Engine: core.EngineBatched, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(hSerial, hGot) {
					t.Errorf("%s: history under batched(workers=%d) differs from serial", name, workers)
				}
			}

			serialSum, err := Run(spec, Options{Replicas: 2, Parallel: 2, Engine: core.EngineSerial})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, spec.NumRAs} {
				gotSum, err := Run(spec, Options{
					Replicas: 2, Parallel: 2, Engine: core.EngineBatched, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serialSum, gotSum) {
					t.Errorf("%s: summary under batched(workers=%d) differs from serial:\n serial %+v\n batched %+v",
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

	serial, err := Run(spec, Options{Replicas: 2, Parallel: 2, Engine: core.EngineSerial, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(spec, Options{
		Replicas: 2, Parallel: 2, Engine: core.EngineBatched, Workers: spec.NumRAs, WarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, got) {
		t.Errorf("learning summary differs across engines:\n serial %+v\n batched %+v", serial, got)
	}
}

func TestRunRejectsUnknownEngine(t *testing.T) {
	spec := shrunk(t, "flash-crowd")
	if _, err := Run(spec, Options{Engine: "warp"}); err == nil {
		t.Error("unknown engine should fail")
	} else if want := fmt.Sprintf("unknown engine %q", "warp"); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}
