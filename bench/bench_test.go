package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram keeps the contract file and the program's
// own tables in step: same workloads, same metrics, units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !slices.Equal(b.Paths, []string{"bench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Fatalf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadWhy))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadWhy[i].Name || w.Why != workloadWhy[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, w.Name, w.Why, workloadWhy[i].Name, workloadWhy[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, program %v", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestShortRun runs every workload at the short scale, both passes, in
// process, and checks that each workload and metric of BENCHMARK.json
// appears exactly once with a finite value, that nothing failed, and that
// the verification gates and replay admissions actually ran.
func TestShortRun(t *testing.T) {
	b := readBenchmarkJSON(t)
	var stdout, stderr bytes.Buffer
	results, code := run([]string{"--short", "--trace", "2", "--seconds", "0.3",
		"--tmp", t.TempDir(), "--results", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	type key struct {
		workload string
		traced   bool
	}
	byKey := map[key]*result{}
	for _, r := range results {
		k := key{r.Workload, r.Traced}
		if byKey[k] != nil {
			t.Errorf("%v reported twice", k)
		}
		byKey[k] = r
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			r := byKey[key{w.Name, traced}]
			if r == nil {
				t.Fatalf("workload %s (traced=%v) missing from the output", w.Name, traced)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Error)
			}
			want, other := b.EndToEnd, b.PerLayer
			gates := []string{"verify:" + w.Name, "teardown:" + w.Name}
			if traced {
				want, other = other, want
				gates = append(gates, "replay:local", "replay:remote", "replay:train", "replay:sweep", "probes")
			}
			for _, m := range want {
				s, ok := r.Metrics[m.Name]
				if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, m.Name, s, ok)
				}
			}
			for _, m := range other {
				if _, ok := r.Metrics[m.Name]; ok {
					t.Errorf("%s traced=%v: metric %s belongs to the other pass", w.Name, traced, m.Name)
				}
			}
			for _, g := range gates {
				if !slices.Contains(r.Gates, g) {
					t.Errorf("%s traced=%v: gate %s did not run (ran %v)", w.Name, traced, g, r.Gates)
				}
			}
			if traced {
				checkTraceFile(t, r)
			} else if r.Metrics["ops_per_s"].Value <= 0 || r.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: end-to-end metrics must never be zero: %+v", w.Name, r.Metrics)
			}
		}
	}
	// The last line of standard output is the driver's result object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last stdout line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(b.PerLayer) {
		t.Errorf("last result line: %+v", last)
	}
}

// checkTraceFile holds a traced run to the acceptance criteria that can be
// checked at any scale: child spans explain at least 90 % of the local
// replay period, and the baseline workload's replay contains no nn span.
func checkTraceFile(t *testing.T, r *result) {
	t.Helper()
	data, err := os.ReadFile(r.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if cov := spanCoverage(tf.Spans); cov < 0.9 {
		t.Errorf("%s: child spans cover %.1f%% of the replay period, want >= 90%%", r.Workload, 100*cov)
	}
	nn := 0
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS || s.Parent >= len(tf.Spans) {
			t.Fatalf("%s: malformed span %+v", r.Workload, s)
		}
		if layerOf(s.Name) == "nn" {
			nn++
		}
	}
	switch r.Workload {
	case wlLocalStep:
		if nn != 0 {
			t.Errorf("%s: %d nn spans in a workload that runs no network", r.Workload, nn)
		}
	case wlLocalInfer:
		if nn == 0 {
			t.Errorf("%s: no nn span although every interval runs a wide forward", r.Workload)
		}
	}
}

// TestMutatedReplayIsRejected flips one byte of one replayed action and
// requires the traced pass to fail: the admission check is live.
func TestMutatedReplayIsRejected(t *testing.T) {
	o := runOpts{seed: 1, seconds: 0.1, sc: shortScale, tmpDir: t.TempDir(), resDir: t.TempDir(), mutateReplay: true}
	r := runTraced(wlLocalStep, o)
	if r.Correct || r.Failed != r.Attempted || !strings.Contains(r.Error, "replay rejected") {
		t.Fatalf("mutated replay was admitted: correct=%v failed=%d/%d error=%q", r.Correct, r.Failed, r.Attempted, r.Error)
	}
}

// TestHoldOutSeedPassesGates runs the cheapest full verification on the
// hold-out seed, which is never used while a change is written.
func TestHoldOutSeedPassesGates(t *testing.T) {
	for _, name := range workloadNames() {
		r := runUntraced(name, runOpts{seed: 2, seconds: 0.1, sc: shortScale, tmpDir: t.TempDir()})
		if !r.Correct {
			t.Errorf("%s at seed 2: %s", name, r.Error)
		}
	}
}
