package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"edgeslice/internal/netsim"
)

// mergeIntervalLoop is the interval merge every engine ran before the fold:
// one pass over interval t's RAs once all of them had stepped.
func mergeIntervalLoop(ws *periodWS, t int) (sysPerf float64, slicePerf []float64, usage [][]float64, violation float64) {
	perf, eff, viol := ws.interval(t)
	slicePerf, usage = make([]float64, ws.I), newGrid(ws.I, netsim.NumResources)
	for j, v := range viol {
		for i := range slicePerf {
			x := j*ws.I + i
			sysPerf += perf[x]
			slicePerf[i] += perf[x]
			for k, e := range eff[x] {
				usage[i][k] += e
			}
		}
		violation += v
	}
	for i := range usage {
		for k := range usage[i] {
			usage[i][k] /= float64(ws.J)
		}
	}
	return sysPerf, slicePerf, usage, violation
}

// TestFoldMatchesIntervalMerge folds random grids of three chunks' RAs in
// one range, chunk by chunk through the driver's foldDone as chunks finish
// in every order, and in uneven ascending ranges, and requires the interval
// merge's sums bit for bit. The values span ten decades, so a sum taken in
// another order rounds differently.
func TestFoldMatchesIntervalMerge(t *testing.T) {
	const J, T = 2*chunkRAs + 3, 3
	rng := rand.New(rand.NewSource(3))
	v := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10))) }
	for _, I := range []int{2, 4} {
		ws := (&System{cfg: Config{NumRAs: J, EnvTemplate: netsim.Config{NumSlices: I, T: T}}}).workspace()
		for x := range ws.gridPerf {
			ws.gridPerf[x] = v()
			for k := range ws.gridEff[x] {
				ws.gridEff[x][k] = v()
			}
		}
		for x := range ws.gridViol {
			ws.gridViol[x] = v()
		}
		folds := map[string]func(){
			"one-range": func() { ws.foldRAs(0, J) },
			"uneven": func() {
				for lo := 0; lo < J; {
					hi := min(J, lo+rng.Intn(50))
					ws.foldRAs(lo, hi)
					lo = hi
				}
			},
		}
		for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			folds[fmt.Sprint("chunks", order)] = func() {
				p := &batchPlan{sys: &System{chunkLo: []int{0, chunkRAs, 2 * chunkRAs, J}}, chunkErr: make([]chunkResult, 3)}
				ws.folded = 0
				for _, c := range order {
					p.chunkErr[c].done.Store(true)
					p.foldDone(ws)
				}
			}
		}
		for name, fold := range folds {
			fold()
			if ws.folded != J {
				t.Fatalf("I=%d %s: folded %d RAs, want %d", I, name, ws.folded, J)
			}
			for iv := 0; iv < T; iv++ {
				sysPerf, slicePerf, usage, violation := mergeIntervalLoop(ws, iv)
				sum := ws.sums[iv*(I+2) : (iv+1)*(I+2)]
				same := sum[0] == sysPerf && sum[1] == violation
				for i := range slicePerf {
					same = same && sum[2+i] == slicePerf[i]
					for k, u := range usage[i] {
						same = same && ws.usage[iv*I+i][k]/float64(J) == u
					}
				}
				if !same {
					t.Errorf("I=%d %s interval %d: fold sums differ from the interval merge's", I, name, iv)
				}
			}
		}
	}
}

// TestMultiChunkLogPinned pins the history log of a 131-RA TARO run, three
// netsim chunks of 64, 64 and 3 RAs folded while they step, at one and four
// workers. The hash was derived before the fold moved into the step, from
// the merge that ran after every chunk had finished; moving the merge must
// not move one bit of it.
func TestMultiChunkLogPinned(t *testing.T) {
	const want = "7e68714d7529f89464e3e519bed387c80b56a0d72471d44738dc54d30a4b4f86"
	cfg := DefaultConfig()
	cfg.Algo, cfg.NumRAs = AlgoTARO, 2*chunkRAs+3
	for _, workers := range []int{1, 4} {
		s := deployedSystem(t, cfg)
		path := filepath.Join(t.TempDir(), "run.histlog")
		log, err := CreateHistoryLog(path, cfg.EnvTemplate.NumSlices, cfg.NumRAs, cfg.EnvTemplate.T)
		if err != nil {
			t.Fatal(err)
		}
		s.SetRecording(RecordOptions{Log: log})
		if _, err := s.RunPeriodsWith(NewBatchedExecutor(workers), 6); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("workers %d: history log sha256 %x, pinned %s", workers, sum, want)
		}
	}
}
