package nn

import "fmt"

// Workspace is a step-scoped arena of reusable matrices and float slices
// for training hot paths. A training loop calls Reset once per update step
// and then draws scratch buffers with Next/Floats/FromRows; because the
// loop draws the same sequence of shapes every step, after the first step
// every draw reuses the allocation made by the previous one and the update
// becomes allocation-free.
//
// Buffers returned by Next, Floats, and their callers are valid until the
// next Reset; contents are undefined unless a Zeroed variant is used.
// Results that must outlive the step (returned policies, recorded metrics)
// must be copied out. A Workspace is not safe for concurrent use; each
// agent owns its own.
type Workspace struct {
	mats []*Matrix
	mi   int
	vecs [][]float64
	vi   int
	pack []float64 // the matmul kernels' panel scratch; see packFloats
}

// Reset rewinds the arena so the next draws reuse the buffers handed out
// since the previous Reset.
func (w *Workspace) Reset() { w.mi, w.vi = 0, 0 }

// Next returns a rows×cols scratch matrix with undefined contents.
func (w *Workspace) Next(rows, cols int) *Matrix {
	if w.mi == len(w.mats) {
		w.mats = append(w.mats, NewMatrix(rows, cols))
	}
	m := w.mats[w.mi]
	w.mi++
	m.Resize(rows, cols)
	return m
}

// NextZeroed returns a rows×cols scratch matrix with every element zero.
func (w *Workspace) NextZeroed(rows, cols int) *Matrix {
	m := w.Next(rows, cols)
	m.Zero()
	return m
}

// FromRows copies the given row slices into a scratch matrix; all rows
// must share a length.
func (w *Workspace) FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return w.Next(0, 0)
	}
	m := w.Next(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Floats returns a length-n scratch slice with undefined contents.
func (w *Workspace) Floats(n int) []float64 {
	if w.vi == len(w.vecs) {
		w.vecs = append(w.vecs, make([]float64, n))
	}
	v := w.vecs[w.vi]
	if cap(v) < n {
		v = make([]float64, n)
		w.vecs[w.vi] = v
	}
	w.vi++
	return v[:n]
}

// FloatsZeroed returns a length-n scratch slice with every element zero.
func (w *Workspace) FloatsZeroed(n int) []float64 {
	v := w.Floats(n)
	for i := range v {
		v[i] = 0
	}
	return v
}

// packFloats returns the workspace's matmul pack buffer at length n, with
// undefined contents. There is one per workspace, not one per draw: a
// product is done with it when it returns. It grows only when a product
// needs more than every one before it and keeps its capacity through
// Reset, so once a workspace has run its largest product it allocates no
// more.
func (w *Workspace) packFloats(n int) []float64 {
	if cap(w.pack) < n {
		w.pack = make([]float64, n)
	}
	return w.pack[:n]
}
