package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/core"
)

// warmSpec is a small learning scenario for warm-start tests.
func warmSpec() Spec {
	spec := fastSpec()
	spec.Periods = 2
	spec.Algorithms = []string{"edgeslice", "taro"}
	spec.TrainSteps = 400
	return spec
}

func TestWarmStartTrainsOnceAndMatchesColdBaseReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := warmSpec()

	cold, err := Run(spec, Options{Replicas: 3, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Trainings != 3 {
		t.Errorf("cold run trained %d times, want 3 (one per learning replica)", cold.Trainings)
	}

	warm, err := Run(spec, Options{Replicas: 3, Parallel: 2, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Trainings != 1 {
		t.Errorf("warm run trained %d times, want 1 (one per learning algorithm)", warm.Trainings)
	}

	// Replica 0 deploys the policy trained at its own seed in both modes,
	// so the warm result must reproduce the cold one exactly.
	coldES, warmES := cold.Algorithms[0], warm.Algorithms[0]
	if coldES.Algorithm != "edgeslice" || warmES.Algorithm != "edgeslice" {
		t.Fatalf("unexpected algorithm order: %s/%s", coldES.Algorithm, warmES.Algorithm)
	}
	if !reflect.DeepEqual(coldES.Replicas[0], warmES.Replicas[0]) {
		t.Errorf("warm replica 0 diverged from cold replica 0:\n cold %+v\n warm %+v",
			coldES.Replicas[0], warmES.Replicas[0])
	}
	// Baseline algorithms are untouched by warm start.
	if !reflect.DeepEqual(cold.Algorithms[1], warm.Algorithms[1]) {
		t.Errorf("warm start changed the taro baseline")
	}
}

func TestWarmStartDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := warmSpec()
	serial, err := Run(spec, Options{Replicas: 3, Parallel: 1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, Options{Replicas: 3, Parallel: 3, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("warm summary differs across parallelism:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

func TestWarmStartCachesAcrossInvocations(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := warmSpec()
	dir := t.TempDir()

	first, err := Run(spec, Options{Replicas: 2, WarmStart: true, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Trainings != 1 {
		t.Errorf("first run trained %d times, want 1", first.Trainings)
	}
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("store holds %d checkpoints, want 1 (one per learning algorithm): %v", len(keys), keys)
	}

	second, err := Run(spec, Options{Replicas: 2, WarmStart: true, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.Trainings != 0 {
		t.Errorf("cached run trained %d times, want 0", second.Trainings)
	}
	first.Trainings, second.Trainings = 0, 0
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached summary diverged:\n first  %+v\n second %+v", first, second)
	}
}

// The RA count and the SLA vector are not training inputs, so sweeps that
// differ only there deploy one stored checkpoint: the later sweeps train
// nothing.
func TestWarmStartSharesStoreAcrossRACountAndSLA(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := warmSpec()
	dir := t.TempDir()
	opts := Options{Replicas: 2, WarmStart: true, CheckpointDir: dir}
	if _, err := Run(spec, opts); err != nil {
		t.Fatal(err)
	}

	moreRAs := spec
	moreRAs.NumRAs += 2
	sla := spec
	sla.Slices = append([]SliceSpec(nil), spec.Slices...)
	sla.Slices[0].UminPerPeriod = 2 * core.PaperUmin
	for _, s := range []Spec{moreRAs, sla} {
		sum, err := Run(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Trainings != 0 {
			t.Errorf("sweep at %d RAs, SLA %v over the primed store trained %d times, want 0", s.NumRAs, s.UminVector(), sum.Trainings)
		}
	}
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := store.Keys(); err != nil || len(keys) != 1 {
		t.Errorf("store holds %v (%v), want one checkpoint", keys, err)
	}
}

// A store primed by a build that wrote edgeslice-checkpoint-v2 holds its
// file under the key of that build, which named no format. The key names
// the format now, so that file is a miss: the sweep retrains beside it and
// succeeds, where a Load of the v2 file would have failed the sweep.
func TestWarmStartRetrainsOverV2StoreFile(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := warmSpec()
	cfg, err := spec.systemConfig(core.AlgoEdgeSlice, replicaSeed(spec.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	key, err := core.TrainingKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2Key := strings.TrimSuffix(key, "-v4")
	v2 := `{"format":"edgeslice-checkpoint-v2","algorithm":"EdgeSlice","shared":true,"agents":[` +
		`{"algo":"ddpg","state_dim":4,"action_dim":3,"config":{},"nets":{},"rng":{"seed":1,"calls":5},"updates":1}]}`
	if err := os.WriteFile(store.Path(v2Key), []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}

	sum, err := Run(spec, Options{Replicas: 2, WarmStart: true, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("warm sweep over a v2 store: %v", err)
	}
	if sum.Trainings != 1 {
		t.Errorf("warm sweep trained %d times, want 1", sum.Trainings)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{v2Key, key}; !reflect.DeepEqual(keys, want) {
		t.Errorf("store keys %v, want the v2 file and one new checkpoint %v", keys, want)
	}
}

// A store primed by a build that wrote edgeslice-checkpoint-v3 holds a
// JSON file under a key ending in -v3. Keys and files end in -v4 now, so
// that file is a miss: the sweep retrains beside it, leaves it alone and
// succeeds.
func TestWarmStartRetrainsOverV3StoreFile(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec := warmSpec()
	cfg, err := spec.systemConfig(core.AlgoEdgeSlice, replicaSeed(spec.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	key, err := core.TrainingKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v3Path := filepath.Join(dir, strings.TrimSuffix(key, "-v4")+"-v3.json")
	v3, err := os.ReadFile("../ckpt/testdata/v3-ddpg.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v3Path, v3, 0o644); err != nil {
		t.Fatal(err)
	}

	sum, err := Run(spec, Options{Replicas: 2, WarmStart: true, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("warm sweep over a v3 store: %v", err)
	}
	if sum.Trainings != 1 {
		t.Errorf("warm sweep trained %d times, want 1", sum.Trainings)
	}
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{key}; !reflect.DeepEqual(keys, want) || !strings.HasSuffix(keys[0], "-v4") {
		t.Errorf("store keys %v, want one new v4 checkpoint %v", keys, want)
	}
	if kept, err := os.ReadFile(v3Path); err != nil || !bytes.Equal(kept, v3) {
		t.Errorf("the v3 file did not survive the sweep unchanged (err %v)", err)
	}
}
