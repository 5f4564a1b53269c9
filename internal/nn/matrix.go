// Package nn is a small, dependency-free neural-network library sufficient
// to train the EdgeSlice orchestration agents: dense layers, the activation
// functions used in the paper (Leaky ReLU hidden layers, sigmoid output),
// SGD and Adam optimizers, Xavier initialization, soft target updates, and
// JSON serialization of weights.
//
// The paper implements its agents with TensorFlow 1.10 (Sec. VI-A); no Go
// deep-learning framework is available offline, so this package is the
// substitution (see DESIGN.md §5).
package nn

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Resize reshapes m to rows×cols in place, reusing the backing array when
// its capacity suffices. Element values are undefined after a resize that
// changes the element count; callers are expected to overwrite them.
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// ensureMat lazily allocates *m on first use and resizes it afterwards,
// reusing its backing array. It is the basic building block of the
// per-layer workspaces: the matrix grows to the largest shape ever
// requested and is reused across training steps.
func ensureMat(m **Matrix, rows, cols int) *Matrix {
	if *m == nil {
		*m = NewMatrix(rows, cols)
		return *m
	}
	(*m).Resize(rows, cols)
	return *m
}

// RandomizeXavier fills the matrix with Xavier/Glorot-uniform values for a
// layer with fanIn inputs and fanOut outputs.
func (m *Matrix) RandomizeXavier(rng *rand.Rand, fanIn, fanOut int) {
	limit := xavierLimit(fanIn, fanOut)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

func xavierLimit(fanIn, fanOut int) float64 {
	denom := float64(fanIn + fanOut)
	if denom <= 0 {
		return 0
	}
	// sqrt(6/(fanIn+fanOut)) — Glorot & Bengio (2010).
	x := 6 / denom
	// Newton's method would be overkill; use math.Sqrt via a tiny helper to
	// keep the import set obvious.
	return sqrt(x)
}

// MatMulNTInto computes C = A * Bᵀ into the preallocated (a.Rows×b.Rows)
// matrix c and returns it. c must not alias a or b.
//
// Every output element is a single sequential dot product over k with one
// accumulator: c[i][j] = Σ_k a[i][k]*b[j][k], added in increasing k. The
// register-tiled fast path below interleaves independent elements but never
// reorders or splits an element's own sum, so results are bit-identical to
// the naive triple loop for any a.Rows — this is what lets batched inference
// (many rows at once) reproduce per-row Forward1 results exactly.
func MatMulNTInto(c, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulNT inner dim mismatch %d != %d", a.Cols, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulNTInto dst is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	// 2×4 register tile: 8 independent accumulators keep both scalar ALU
	// ports busy (~1 MAC/cycle vs ~0.7 for the naive row-dot) without
	// spilling; 4×4 tiles measure slower here because the 16 accumulators
	// plus operands exceed the register file.
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := a.Data[(i+0)*k : (i+0)*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		j := 0
		for ; j+4 <= m; j += 4 {
			b0 := b.Data[(j+0)*k : (j+0)*k+k]
			b1 := b.Data[(j+1)*k : (j+1)*k+k]
			b2 := b.Data[(j+2)*k : (j+2)*k+k]
			b3 := b.Data[(j+3)*k : (j+3)*k+k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for kk := 0; kk < k; kk++ {
				av0, av1 := a0[kk], a1[kk]
				bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			c.Data[(i+0)*m+j], c.Data[(i+0)*m+j+1], c.Data[(i+0)*m+j+2], c.Data[(i+0)*m+j+3] = s00, s01, s02, s03
			c.Data[(i+1)*m+j], c.Data[(i+1)*m+j+1], c.Data[(i+1)*m+j+2], c.Data[(i+1)*m+j+3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			br := b.Data[j*k : j*k+k]
			var s0, s1 float64
			for kk, bv := range br {
				s0 += a0[kk] * bv
				s1 += a1[kk] * bv
			}
			c.Data[(i+0)*m+j] = s0
			c.Data[(i+1)*m+j] = s1
		}
	}
	for ; i < n; i++ {
		ar := a.Row(i)
		cr := c.Row(i)
		for j := 0; j < m; j++ {
			br := b.Row(j)
			var s float64
			for kk := range ar {
				s += ar[kk] * br[kk]
			}
			cr[j] = s
		}
	}
	return c
}

// MatMulNTIntoWS is MatMulNTInto with workspace-backed scratch: on CPUs
// with AVX it packs A panels into ws and runs a vectorized kernel that is
// bit-identical to the scalar path (each output element still accumulates
// one sequential mul+add chain over k; the vector lanes span independent
// elements only). Batches of four rows and up — training batches, the
// batched executor's gather matrices — take it at any output width; fewer
// rows fall through to MatMulNTInto.
//
//edgeslice:noalloc
func MatMulNTIntoWS(c, a, b *Matrix, ws *Workspace) *Matrix {
	if useAVX && a.Rows >= 4 && a.Cols > 0 && b.Rows > 0 {
		return matMulNTAVX(c, a, b, ws)
	}
	return MatMulNTInto(c, a, b)
}

// matMulNTAVX drives the AVX tile kernels: A is packed four rows at a time
// into a column-interleaved panel, each panel sweeps B in 8-row tiles with
// the last 1–7 rows of B (all of a narrow head) on the narrow tile, and the
// row tail reuses the scalar kernel's per-element dots (the same sequential
// operation order, so it is bit-identical too).
//
//edgeslice:noalloc
func matMulNTAVX(c, a, b *Matrix, ws *Workspace) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulNT inner dim mismatch %d != %d", a.Cols, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulNTIntoWS dst is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	// The kernels index unchecked; these are the furthest elements they touch.
	_, _, _ = a.Data[n*k-1], b.Data[m*k-1], c.Data[n*m-1]
	pack := ws.Floats(4 * k)
	i := 0
	for ; i+4 <= n; i += 4 {
		packPanel4AVX(&pack[0], &a.Data[i*k], k)
		j := 0
		for ; j+8 <= m; j += 8 {
			matmulTile48AVX(&c.Data[i*m+j], m, &pack[0], &b.Data[j*k], k)
		}
		if j < m {
			matmulTile4NAVX(&c.Data[i*m+j], m, &pack[0], &b.Data[j*k], k, m-j)
		}
	}
	if i < n {
		at := Matrix{Rows: n - i, Cols: k, Data: a.Data[i*k:]}
		ct := Matrix{Rows: n - i, Cols: m, Data: c.Data[i*m:]}
		MatMulNTInto(&ct, &at, b)
	}
	return c
}

// MatMulNNInto computes C = A * B into the preallocated (a.Rows×b.Cols)
// matrix c and returns it. c must not alias a or b.
func MatMulNNInto(c, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulNN inner dim mismatch %d != %d", a.Cols, b.Rows))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulNNInto dst is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	c.Zero()
	matMulNNAcc(c, a, b)
	return c
}

// matMulNNAcc accumulates C += A * B; shapes are the caller's to check.
//
//edgeslice:noalloc
func matMulNNAcc(c, a, b *Matrix) {
	if useAVX && a.Cols > 0 {
		for i := 0; i < a.Rows; i++ {
			rowAccAVX(c.Row(i), a.Row(i), 1, b.Data, b.Cols, a.Cols)
		}
		return
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		cr := c.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j := range br {
				cr[j] += av * br[j]
			}
		}
	}
}

// rowAccMask[16-m:] is, for 1 ≤ m ≤ 16, the sixteen lane masks of a column
// tail m wide: m all-ones words, then zeros.
var rowAccMask = func() (m [32]uint64) {
	for i := range m[:16] {
		m[i] = ^uint64(0)
	}
	return m
}()

// rowAccAVX accumulates one output row, c[j] += Σ_kk a[kk·aStride] ·
// b[kk·bStride+j] for kk in [0,k), on the AVX row-accumulate kernel: 32
// columns at a time, then the masked tail. With aStride = 1 and a a row of
// dz it is a row of dz·W (matMulNNAcc); with aStride = dz.Cols and a
// starting at column i it is row i of dzᵀ·x (matMulTNAcc). Each c[j] sees
// the operations of the scalar loops in the same order — products added in
// increasing kk, zero a skipped — so the result is bit-identical to them.
//
//edgeslice:noalloc
func rowAccAVX(c, a []float64, aStride int, b []float64, bStride, k int) {
	if len(c) == 0 {
		return
	}
	// The kernels index unchecked; these are the furthest elements they read.
	_, _ = a[(k-1)*aStride], b[(k-1)*bStride+len(c)-1]
	j := 0
	for ; j+32 <= len(c); j += 32 {
		rowAcc32AVX(&c[j], &a[0], aStride, &b[j], bStride, k)
	}
	for ; j < len(c); j += 16 {
		rowAccTailAVX(&c[j], &rowAccMask[16-min(16, len(c)-j)], &a[0], aStride, &b[j], bStride, k)
	}
}

// colSumAcc accumulates the column sums of a, rows added in increasing
// order: c[j] += Σ_i a[i][j]. On AVX it is the row-accumulate kernel with a
// constant scalar 1 (stride 0) — v·1 is v bit for bit.
//
//edgeslice:noalloc
func colSumAcc(c []float64, a *Matrix) {
	if useAVX && a.Rows > 0 {
		one := [1]float64{1}
		rowAccAVX(c[:a.Cols], one[:], 0, a.Data, a.Cols, a.Rows)
		return
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			c[j] += v
		}
	}
}

// matMulTNAcc accumulates C += Aᵀ * B, where A is (k×n) and B is (k×m),
// into the (n×m) matrix c without zeroing it first — the form gradient
// accumulation wants (dW += dzᵀ·x). c must not alias a or b.
//
//edgeslice:noalloc
func matMulTNAcc(c, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matMulTNAcc inner dim mismatch %d != %d", a.Rows, b.Rows))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matMulTNAcc dst is %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	if useAVX && a.Rows > 0 {
		for i := 0; i < a.Cols; i++ {
			rowAccAVX(c.Row(i), a.Data[i:], a.Cols, b.Data, b.Cols, a.Rows)
		}
		return
	}
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			cr := c.Row(i)
			for j := range br {
				cr[j] += av * br[j]
			}
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return mathSqrt(x)
}
