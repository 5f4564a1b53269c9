package experiments

import "testing"

// TestFig6Shape is both a regression test for the headline result and, run
// with -v, a tuning aid: it prints the steady-state system performance of
// the three algorithms.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	l, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	figA, figB, err := l.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(figA.Series) != 3 {
		t.Fatalf("fig6a has %d series", len(figA.Series))
	}
	steady := map[string]float64{}
	for _, s := range figA.Series {
		var sum float64
		for _, y := range s.Y[len(s.Y)-30:] {
			sum += y
		}
		steady[s.Name] = sum / 30
		t.Logf("%-14s steady-state system perf: %.1f", s.Name, steady[s.Name])
	}
	if steady["EdgeSlice"] <= steady["TARO"] {
		t.Errorf("EdgeSlice (%v) should beat TARO (%v)", steady["EdgeSlice"], steady["TARO"])
	}
	if steady["EdgeSlice"] < steady["EdgeSlice-NT"]-1e-9 {
		t.Logf("note: EdgeSlice (%v) vs EdgeSlice-NT (%v)", steady["EdgeSlice"], steady["EdgeSlice-NT"])
	}
	if len(figB.Series) != 3 { // 2 slices + Umin line
		t.Fatalf("fig6b has %d series", len(figB.Series))
	}
}
