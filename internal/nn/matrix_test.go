package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulNT(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}) // 3x2
	b := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}}) // 3x2 -> bT is 2x3
	c := MatMulNTInto(NewMatrix(3, 3), a, b)           // 3x3
	want := [][]float64{{1, 2, 3}, {3, 4, 7}, {5, 6, 11}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulNN(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMulNNInto(NewMatrix(2, 2), a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulTN(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}}) // 2x2
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	matMulTNAcc(c, a, b) // aT*b
	want := [][]float64{{26, 30}, {38, 44}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

// Aᵀ·B from matMulTNAcc must equal transposing A explicitly then MatMulNNInto.
func TestMatMulEquivalenceProperty(t *testing.T) {
	rng := newTestRNG()
	f := func(seed uint8) bool {
		n, k, m := 1+int(seed)%4, 1+int(seed/4)%4, 1+int(seed/16)%4
		a := NewMatrix(k, n)
		b := NewMatrix(k, m)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		at := NewMatrix(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		c1 := NewMatrix(n, m)
		matMulTNAcc(c1, a, b)
		c2 := MatMulNNInto(NewMatrix(n, m), at, b)
		for i := range c1.Data {
			if math.Abs(c1.Data[i]-c2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromRows with ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone should be independent of the original")
	}
}

func TestXavierLimitDegenerate(t *testing.T) {
	if got := xavierLimit(0, 0); got != 0 {
		t.Errorf("xavierLimit(0,0) = %v, want 0", got)
	}
}
