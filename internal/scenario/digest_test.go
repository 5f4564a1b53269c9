package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
)

// sweepDigests pins, per scenario, the sha256 of a short
// warm-started sweep's outputs — every replica History's records, every
// replica's history-log bytes and the rendered summary. They were computed at
// commit 0ce9d15, before the runner recorded into one caller-owned History,
// and re-derived once when the RA environment moved to a PCG stream with
// one-uniform Poisson inversion, which changes every replica's arrivals,
// and once more when the trainer stream moved to a PCG whose state the
// checkpoint holds, which changes the warm-started agent every sweep
// deploys. A
// change anywhere on the sweep path that moves one bit of one record fails
// here, across commits.
var sweepDigests = map[string]string{
	"heterogeneous-mix/exact": "04e62167e1a8675f6f003bf49fcc5759f329b7badacd7e6d4acd475d2a0c53be",
	"flash-crowd/exact":       "68145feec23ba8a893531263cb72a3c49524eccd403f084216cb8a79de720126",
}

// TestSweepDigestPinned runs heterogeneous-mix and flash-crowd with a
// warm-started EdgeSlice agent, TARO and equal share, two replicas each,
// and compares the sha256 of (a) each replica's exact History records as
// float bits plus its summary accessors, (b) each replica's history-log
// bytes and (c) the WriteSummary bytes with the pinned value.
func TestSweepDigestPinned(t *testing.T) {
	for _, name := range []string{"heterogeneous-mix", "flash-crowd"} {
		key := name + "/exact"
		t.Run(key, func(t *testing.T) {
			if got, want := sweepDigest(t, name), sweepDigests[key]; got != want {
				t.Errorf("sweep digest %s, pinned %s", got, want)
			}
		})
	}
}

func sweepDigest(t *testing.T, name string) string {
	t.Helper()
	spec, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Algorithms = []string{"edgeslice", "taro", "equal"}
	spec.TrainSteps = 400
	const replicas = 2
	dir := t.TempDir()
	opts := Options{Replicas: replicas, Parallel: 2, WarmStart: true, HistoryLogDir: dir}
	sum, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var trainings atomic.Int64
	warm, err := warmCheckpoints(spec, opts, &trainings)
	if err != nil {
		t.Fatal(err)
	}

	d := sha256.New()
	for _, algo := range spec.Algorithms {
		for r := 0; r < replicas; r++ {
			h := exactHistory(spec)
			if _, err := new(replicaWorker).runReplica(spec, algo, r, warm[algo], &trainings, Options{}, h); err != nil {
				t.Fatal(err)
			}
			hashHistory(t, d, h)
			log, err := os.ReadFile(histLogPath(dir, spec, algo, r))
			if err != nil {
				t.Fatal(err)
			}
			d.Write(log)
		}
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	d.Write(buf.Bytes())
	return fmt.Sprintf("%x", d.Sum(nil))
}

// hashHistory writes h's records, read through its accessors, and its
// summary accessors into d as little-endian float bits.
func hashHistory(t *testing.T, d hash.Hash, h *core.History) {
	t.Helper()
	f := func(vs ...float64) {
		for _, v := range vs {
			_ = binary.Write(d, binary.LittleEndian, math.Float64bits(v))
		}
	}
	f(float64(h.Intervals()), float64(h.Periods()))
	// A streaming History keeps no raw records to hash; an exact one's go in
	// field order: the per-interval columns, then each interval's usage,
	// violations, perf grids, SLA flags, primal and dual residuals.
	if !h.Streaming() {
		I, K := h.NumSlices, netsim.NumResources
		for c := 0; c <= I; c++ {
			f(h.IntervalColumn(c)...)
		}
		usage := make([][]float64, I*K)
		for c := range usage {
			usage[c] = h.IntervalColumn(1 + I + c)
		}
		for k := 0; k < h.Intervals(); k++ {
			for _, col := range usage {
				f(col[k])
			}
		}
		f(h.IntervalColumn(1 + I + I*K)...)
		sla := make([][]bool, h.Periods())
		primal, dual := make([]float64, h.Periods()), make([]float64, h.Periods())
		for p := range sla {
			var perf [][]float64
			perf, sla[p], primal[p], dual[p] = h.Period(p)
			for _, row := range perf {
				f(row...)
			}
		}
		for _, row := range sla {
			for _, ok := range row {
				if ok {
					f(1)
				} else {
					f(0)
				}
			}
		}
		f(primal...)
		f(dual...)
	}
	ssp, err := h.MeanSystemPerf(h.Intervals() / 2)
	if err != nil {
		t.Fatal(err)
	}
	sla, err := h.SLASatisfactionRate(0)
	if err != nil {
		t.Fatal(err)
	}
	viol, err := h.ViolationRate()
	if err != nil {
		t.Fatal(err)
	}
	p50, err := h.SystemPerfQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	primal, dual := h.LastResiduals()
	f(ssp, sla, viol, p50, primal, dual)
}
