package experiments

import (
	"strings"
	"testing"
)

// tinyOptions trains just enough to exercise every code path; figure shape
// assertions live in TestFig6Shape and the benchmark harness.
func tinyOptions() Options {
	return Options{
		TrainSteps: 600,
		Periods:    2,
		Seed:       3,
		Hidden:     8,
		Batch:      16,
	}
}

// tinyLab is a run context at tinyOptions.
func tinyLab(t *testing.T) *Lab {
	t.Helper()
	l, err := New(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.TrainSteps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero train steps should fail")
	}
	if _, err := New(bad); err == nil {
		t.Error("New should validate its options")
	}
}

func TestSmoothAndSeries(t *testing.T) {
	sm := smooth([]float64{1, 2, 3, 4}, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if sm[i] != want[i] {
			t.Errorf("smooth[%d] = %v, want %v", i, sm[i], want[i])
		}
	}
	if got := smooth([]float64{5, 6}, 1); got[0] != 5 || got[1] != 6 {
		t.Error("width-1 smoothing should be identity")
	}
	s := indexSeries("x", []float64{9, 8})
	if s.X[0] != 1 || s.X[1] != 2 {
		t.Errorf("indexSeries X = %v", s.X)
	}
}

func TestWriteTable(t *testing.T) {
	fig := &Figure{
		ID:    "figX",
		Title: "test",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var sb strings.Builder
	if err := WriteTable(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"figX", "a\tb", "10\t30"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Mismatched grids fall back to sequential form.
	fig.Series[1].X = []float64{9}
	fig.Series[1].Y = []float64{9}
	sb.Reset()
	if err := WriteTable(&sb, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "-- a --") {
		t.Error("sequential form missing")
	}
	if err := WriteTable(&sb, &Figure{}); err == nil {
		t.Error("empty figure should fail")
	}
}

func TestFig7Smoke(t *testing.T) {
	figs, err := tinyLab(t).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("Fig7 returned %d figures, want 3", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Errorf("%s has %d series, want 2", f.ID, len(f.Series))
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	cdf, ratios, err := tinyLab(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(cdf.Series) != 3 {
		t.Errorf("fig8a has %d series", len(cdf.Series))
	}
	for _, s := range cdf.Series {
		// CDF must be monotone in probability.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s CDF not monotone", s.Name)
			}
		}
	}
	if len(ratios) != 3 {
		t.Errorf("fig8 has %d ratio figures, want 3", len(ratios))
	}
}

func TestFig9Smoke(t *testing.T) {
	figA, figB, err := tinyLab(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(figA.Series) != 3 || len(figA.Series[0].X) != 4 {
		t.Errorf("fig9a shape: %d series, %d points", len(figA.Series), len(figA.Series[0].X))
	}
	if len(figB.Series) != 3 || len(figB.Series[0].X) != 3 {
		t.Errorf("fig9b shape: %d series, %d points", len(figB.Series), len(figB.Series[0].X))
	}
}

func TestFig10Smoke(t *testing.T) {
	figA, figB, err := tinyLab(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(figA.Series) != 3 || len(figA.Series[0].X) != 4 {
		t.Errorf("fig10a shape wrong")
	}
	if len(figB.Series) != len(TrainingTechniques) {
		t.Errorf("fig10b has %d series, want %d", len(figB.Series), len(TrainingTechniques))
	}
}

func TestFig11Smoke(t *testing.T) {
	figA, figB, err := tinyLab(t).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(figA.Series) != 3 || len(figA.Series[0].X) != 4 {
		t.Errorf("fig11a shape wrong")
	}
	if len(figB.Series) != 3 {
		t.Errorf("fig11b has %d series", len(figB.Series))
	}
}

// TestEachAgentTrainsOnce runs all six figures on one run context: the
// memo then holds the 22 distinct DDPG agents they deploy (2 default, 6 of
// Fig. 9, 6 more step budgets of Fig. 10(a), 6 more α of Fig. 11(a), 2
// service-time of Fig. 11(b)), each trained once where running each figure
// alone trains 30, and a figure whose agents are all trained trains
// nothing.
func TestEachAgentTrainsOnce(t *testing.T) {
	l := tinyLab(t)
	if _, _, err := l.Fig6(); err != nil {
		t.Fatal(err)
	}
	if n := len(l.policies); n != 2 {
		t.Fatalf("Fig6 trained %d agents, want 2", n)
	}
	if _, err := l.Fig7(); err != nil {
		t.Fatal(err)
	}
	if n := len(l.policies); n != 2 {
		t.Fatalf("Fig7 after Fig6 trained %d more agents, want 0", n-2)
	}
	if _, _, err := l.Fig8(); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []func() (*Figure, *Figure, error){l.Fig9, l.Fig10, l.Fig11} {
		if _, _, err := fig(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.policies); n != 22 {
		t.Errorf("six figures trained %d distinct agents, want 22", n)
	}
}

// TestEachRunRecordsOnce runs all six figures on one run context and
// counts the distinct runs the memo holds: 43 of the 57 the figures ask
// for. Fig. 7, Fig. 10(b)'s DDPG entry and Fig. 10(a) and Fig. 11(a) at
// the default budget and α = 2 repeat Fig. 6's runs, TARO ignores Fig.
// 10(a)'s step budget, and Fig. 9(a) at 10 RAs is Fig. 9(b) at 5 slices.
// Fig. 8's zero-coordination runs wrap their policy afresh and are not
// memoized. Running the figures again adds only the runs of Fig. 10(b)'s
// four other trainers, which train afresh on every call.
func TestEachRunRecordsOnce(t *testing.T) {
	l := tinyLab(t)
	all := func() {
		t.Helper()
		if _, _, err := l.Fig6(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Fig7(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Fig8(); err != nil {
			t.Fatal(err)
		}
		for _, fig := range []func() (*Figure, *Figure, error){l.Fig9, l.Fig10, l.Fig11} {
			if _, _, err := fig(); err != nil {
				t.Fatal(err)
			}
		}
	}
	all()
	if n := len(l.runs); n != 43 {
		t.Errorf("six figures recorded %d distinct runs, want 43", n)
	}
	all()
	if n := len(l.runs); n != 43+4 {
		t.Errorf("running them again left %d distinct runs, want 43+4", n)
	}
}
