package nn

import (
	"testing"
)

// batchTestNet returns a small deployment-shaped MLP and a batch of random
// observations for batched-inference tests.
func batchTestNet(rows int) (*Network, *Matrix) {
	rng := newTestRNG()
	net := NewMLP(rng, 6,
		LayerSpec{Out: 16, Act: ActLeakyReLU},
		LayerSpec{Out: 16, Act: ActTanh},
		LayerSpec{Out: 4, Act: ActSigmoid},
	)
	x := NewMatrix(rows, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return net, x
}

// TestForwardBatchMatchesForward1 pins the batched engine's foundation: row
// i of one wide ForwardBatch is bitwise identical to Forward1 on row i, for
// batch sizes spanning the kernel's 2x4 tile boundaries.
func TestForwardBatchMatchesForward1(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 7, 64} {
		net, x := batchTestNet(rows)
		var ws Workspace
		y := net.ForwardBatch(x, &ws)
		if y.Rows != rows || y.Cols != 4 {
			t.Fatalf("rows=%d: ForwardBatch shape %dx%d, want %dx4", rows, y.Rows, y.Cols, rows)
		}
		for r := 0; r < rows; r++ {
			want := net.Forward1(x.Row(r))
			got := y.Row(r)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rows=%d row=%d out[%d]: batch %v != scalar %v (must be bitwise equal)",
						rows, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardBatchShardInvariant pins the property the batched executor's
// worker sharding relies on: forwarding contiguous row blocks through
// separate workspaces yields rows bitwise identical to one unsharded pass,
// wherever the shard boundary falls.
func TestForwardBatchShardInvariant(t *testing.T) {
	const rows = 9
	net, x := batchTestNet(rows)
	var wsFull Workspace
	full := net.ForwardBatch(x, &wsFull)
	for cut := 1; cut < rows; cut++ {
		lo := Matrix{Rows: cut, Cols: x.Cols, Data: x.Data[:cut*x.Cols]}
		hi := Matrix{Rows: rows - cut, Cols: x.Cols, Data: x.Data[cut*x.Cols:]}
		var wsLo, wsHi Workspace
		yLo := net.ForwardBatch(&lo, &wsLo)
		yHi := net.ForwardBatch(&hi, &wsHi)
		for r := 0; r < rows; r++ {
			var got []float64
			if r < cut {
				got = yLo.Row(r)
			} else {
				got = yHi.Row(r - cut)
			}
			for i, want := range full.Row(r) {
				if got[i] != want {
					t.Fatalf("cut=%d row=%d out[%d]: sharded %v != unsharded %v", cut, r, i, got[i], want)
				}
			}
		}
	}
}

// TestMatMulNTIntoWSMatchesScalar sweeps shapes across the vectorized
// kernel's tile boundaries (4-row panels, the 1–3-row tails padded into
// one, 8-column tiles, narrow column tails) and requires bitwise equality
// with the scalar kernel. On CPUs without AVX the two paths are literally
// the same code and this still pins the dispatch.
func TestMatMulNTIntoWSMatchesScalar(t *testing.T) {
	rng := newTestRNG()
	var ws Workspace
	for _, n := range []int{1, 3, 4, 5, 8, 11} {
		for _, k := range []int{1, 2, 6, 17} {
			for _, m := range []int{1, 7, 8, 9, 16, 23} {
				a := NewMatrix(n, k)
				b := NewMatrix(m, k)
				for i := range a.Data {
					a.Data[i] = rng.NormFloat64()
				}
				for i := range b.Data {
					b.Data[i] = rng.NormFloat64()
				}
				want := MatMulNTInto(NewMatrix(n, m), a, b)
				ws.Reset()
				got := MatMulNTIntoWS(NewMatrix(n, m), a, b, &ws)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("n=%d k=%d m=%d: element %d: ws-kernel %v != scalar %v",
							n, k, m, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestForwardBatchWarmAllocs is the CI allocation gate for batched
// inference: once the workspace is warm, a wide forward must allocate
// nothing.
func TestForwardBatchWarmAllocs(t *testing.T) {
	net, x := batchTestNet(32)
	var ws Workspace
	net.ForwardBatch(x, &ws) // warm the arena
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		net.ForwardBatch(x, &ws)
	})
	if allocs != 0 {
		t.Errorf("warm ForwardBatch allocates %v times per call, want 0", allocs)
	}
}

// TestForward1WSWarmAllocs gates the scalar workspace path the executors'
// per-RA closures use: zero allocations once warm.
func TestForward1WSWarmAllocs(t *testing.T) {
	net, x := batchTestNet(1)
	state := x.Row(0)
	var ws Workspace
	net.Forward1WS(state, &ws)
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		net.Forward1WS(state, &ws)
	})
	if allocs != 0 {
		t.Errorf("warm Forward1WS allocates %v times per call, want 0", allocs)
	}
}

// TestRowTailForwardAllocFree gates the padded row tail on the actors that
// run it: a warm 3-row ForwardBatch on the sweep's 2×32 actor (one per RA
// of a heterogeneous-mix replica) and a warm Forward1WS on the 2×128 actor
// allocate nothing, on every kernel tier.
func TestRowTailForwardAllocFree(t *testing.T) {
	rng := newTestRNG()
	actor := func(in, hidden, out int) *Network {
		return NewMLP(rng, in,
			LayerSpec{Out: hidden, Act: ActLeakyReLU},
			LayerSpec{Out: hidden, Act: ActLeakyReLU},
			LayerSpec{Out: out, Act: ActSigmoid},
		)
	}
	sweep, wide := actor(8, 32, 12), actor(4, 128, 6)
	x, state := randMat(rng, 3, 8), randMat(rng, 1, 4).Data
	for _, tier := range kernelTiers {
		if !setKernels(t, tier.avx, tier.avx512) {
			continue
		}
		for name, f := range map[string]func(*Workspace){
			"3-row ForwardBatch, 2x32": func(ws *Workspace) { sweep.ForwardBatch(x, ws) },
			"Forward1WS, 2x128":        func(ws *Workspace) { wide.Forward1WS(state, ws) },
		} {
			var ws Workspace
			f(&ws) // warm the arena and the pack buffer
			if allocs := testing.AllocsPerRun(100, func() { ws.Reset(); f(&ws) }); allocs != 0 {
				t.Errorf("avx=%v avx512=%v: warm %s allocates %v times per call, want 0", useAVX, useAVX512, name, allocs)
			}
		}
	}
}

// TestForward1Allocs pins the convenience wrapper's cost at exactly its
// returned copy: one allocation per call, not one per layer.
func TestForward1Allocs(t *testing.T) {
	net, x := batchTestNet(1)
	state := x.Row(0)
	net.Forward1(state)
	allocs := testing.AllocsPerRun(100, func() { net.Forward1(state) })
	if allocs > 1 {
		t.Errorf("Forward1 allocates %v times per call, want at most the returned copy (1)", allocs)
	}
}

// TestForward1LeavesTrainingCachesIntact: inference between Forward and
// Backward must not corrupt the gradient (Forward1 no longer writes the
// layers' training caches).
func TestForward1LeavesTrainingCachesIntact(t *testing.T) {
	net, x := batchTestNet(4)
	y := net.Forward(x)
	grad := NewMatrix(y.Rows, y.Cols)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	net.ZeroGrad()
	net.Backward(grad)
	want := append([]float64(nil), net.Layers[0].GradW.Data...)

	y = net.Forward(x)
	net.Forward1(x.Row(0)) // interleaved inference
	net.ZeroGrad()
	net.Backward(grad)
	for i, g := range net.Layers[0].GradW.Data {
		if g != want[i] {
			t.Fatalf("GradW[%d] changed after interleaved Forward1: %v != %v", i, g, want[i])
		}
	}
}
