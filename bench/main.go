// Command bench is the EdgeSlice benchmark: five named workloads, the
// end-to-end metrics a user of the system waits for, and a separate traced
// pass that times every layer from outside. See README.md.
//
// The driver's form, from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints every metric by name with its unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Without --workload every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"
)

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// options is the parsed command line.
type options struct {
	runOpts
	workloads []string
	trace     int // 0 end-to-end pass, 1 traced pass, 2 both
	repeat    int
	out       string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var wl stringList
	short := fs.Bool("short", false, "about 2 s per workload at a small scale; results are marked \"scale\": \"short\" and never comparable with full runs")
	fs.Var(&wl, "workload", "workload to run (repeatable; default all): "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it (2 is the hold-out)")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default 10, or 1 with -short)")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end pass with tracing off, 1 = traced per-layer pass, 2 = both")
	fs.IntVar(&o.repeat, "repeat", 1, "run every workload this many times in alternating order and fail if an end-to-end metric disagrees by more than its bound")
	fs.StringVar(&o.out, "out", "", "write a results file (config, environment stamp, every metric) here")
	fs.StringVar(&o.tmpDir, "tmp", ".bench_build/tmp", "scratch directory for history logs and checkpoint stores")
	fs.StringVar(&o.resDir, "results", "bench/results", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.sc = fullScale
	if *short {
		o.sc = shortScale
	}
	if o.seconds <= 0 {
		o.seconds = 10
		if *short {
			o.seconds = 1
		}
	}
	if o.trace < 0 || o.trace > 2 || o.repeat < 1 {
		return nil, fmt.Errorf("need -trace in 0..2 and -repeat >= 1")
	}
	o.workloads = wl
	if len(o.workloads) == 0 {
		o.workloads = workloadNames()
	}
	for _, name := range o.workloads {
		if !slices.Contains(workloadNames(), name) {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	return &o, nil
}

// printResult writes every metric by name with its unit, then the result
// line the driver parses.
func printResult(w io.Writer, r *result, defs []metricDef) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass): attempted %d, failed %d, failed_share %.4g, measured %.2f s\n",
		r.Workload, pass, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.WallS)
	for _, d := range defs {
		if s, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %-6s (n=%d, %s is better)\n", d.Name, s.Value, s.Unit, s.N, d.Better)
		}
	}
	if r.Error != "" {
		fmt.Fprintf(w, "FAILED: %s\n", r.Error)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]sample `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]sample{}}
	for _, d := range defs {
		if s, ok := r.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = sample{Value: s.Value, Unit: s.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		data = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// envStamp is where and on what a results file was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

func stampEnv() envStamp {
	st := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", GitSHA: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if m := regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`).FindSubmatch(data); m != nil {
			st.CPU = string(m[1])
		}
	}
	// Outside a git work tree (the driver's checkout is a plain copy) both
	// commands fail and the stamp says unknown.
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.GitSHA = strings.TrimSpace(string(sha))
		if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			st.GitDirty = len(strings.TrimSpace(string(status))) > 0
		}
	}
	return st
}

// resultsFile is what -out writes: every result carries the config that
// produced it.
type resultsFile struct {
	Benchmark string    `json:"benchmark"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Scale     scale     `json:"scale"`
	Env       envStamp  `json:"env"`
	Results   []*result `json:"results"`
}

// spread is the disagreement between repeats of one metric: the range as a
// share of the median.
func spread(vals []float64) float64 {
	lo, hi := slices.Min(vals), slices.Max(vals)
	return (hi - lo) / median(vals)
}

// checkRepeats prints every repeat's value per end-to-end metric and
// reports whether all stayed within their bounds.
func checkRepeats(w io.Writer, runs map[string][]*result, names []string) bool {
	ok := true
	for _, name := range names {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range runs[name] {
				vals = append(vals, r.Metrics[d.Name].Value)
			}
			sp := spread(vals)
			within := sp <= d.Bound
			if d.Name == "setup_s" && slices.Max(vals)-slices.Min(vals) <= setupFloorS {
				within = true
			}
			verdict := "ok"
			if !within {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Fprintf(w, "repeat %-18s %-16s %v spread %.2f%% bound %.0f%% %s\n", name, d.Name, vals, 100*sp, 100*d.Bound, verdict)
		}
	}
	return ok
}

// run is main without the process exit, so the test can drive it.
func run(args []string, stdout, stderr io.Writer) (results []*result, code int) {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return nil, 2
	}
	fmt.Fprintf(stderr, "bench: seed %d, %.3g s per run, scale %s, GOMAXPROCS %d of %d CPUs\n",
		o.seed, o.seconds, o.sc.Name, runtime.GOMAXPROCS(0), runtime.NumCPU())
	byWorkload := make(map[string][]*result)
	for rep := 0; rep < o.repeat; rep++ {
		order := slices.Clone(o.workloads)
		if rep%2 == 1 {
			slices.Reverse(order) // alternate the order so drift does not favour one side
		}
		for _, name := range order {
			if o.trace != 1 {
				r := runUntraced(name, o.runOpts)
				printResult(stdout, r, endToEnd)
				results = append(results, r)
				byWorkload[name] = append(byWorkload[name], r)
			}
			if o.trace != 0 {
				r := runTraced(name, o.runOpts)
				printResult(stdout, r, perLayer)
				results = append(results, r)
			}
		}
	}
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
	}
	if o.repeat > 1 && o.trace != 1 && code == 0 && !checkRepeats(stderr, byWorkload, o.workloads) {
		code = 1
	}
	if o.out != "" {
		data, err := json.MarshalIndent(resultsFile{
			Benchmark: "edgeslice/bench", Seed: o.seed, Seconds: o.seconds, Scale: o.sc, Env: stampEnv(), Results: results,
		}, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	return results, code
}

func main() {
	_, code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}
