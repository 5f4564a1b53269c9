//go:build amd64 && !race

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// The WriteTable output of Figs. 8, 9 and 10 at a small fixed scale is
// pinned across commits: the figures deploy their DDPG agents (Fig. 8's
// two, Fig. 9's per-slice-count agents with its 2000 warm-up steps, Fig.
// 10's) through the same orchestration, and the figure code formats the
// same numbers. It pins the tables and the orchestration, not the agents:
// the printed tables round away a small change to every training (Adam's ε
// at 1e-7 instead of 1e-8 passes), and TestSnapshotContentPinned
// (internal/ckpt) pins the agents. 2400 steps is above Fig. 9's warm-up, so
// its noise and warm-up settings are exercised. The digest was computed
// while the figures trained their agents outside System.Train. amd64 only
// and not under -race, as the other training pins.
func TestFigureTablesPinned(t *testing.T) {
	l := pinLab(t)
	var figs []*Figure
	cdf, ratios, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	figs = append(append(figs, cdf), ratios...)
	a9, b9, err := l.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	a10, b10, err := l.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	figs = append(figs, a9, b9, a10, b10)
	var sb strings.Builder
	for _, f := range figs {
		if err := WriteTable(&sb, f); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	const want = "55d10bb93f98b9d7a453c658d92cc2450be289e3c3861bb6e2ee45d9801f385b"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("figure tables sha256 = %s, want %s\n%s", got, want, sb.String())
	}
}

// pinLab is a run context at the pinned tests' scale.
func pinLab(t *testing.T) *Lab {
	t.Helper()
	l, err := New(Options{TrainSteps: 2400, Periods: 2, Seed: 3, Hidden: 8, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFigure6711TablesPinned pins the WriteTable output of Figs. 6, 7 and
// 11 at TestFigureTablesPinned's scale: the orchestration of the agents
// they share with the other figures (the default EdgeSlice and NT agents,
// Fig. 11's α and service-time agents) and their steady-state reducers.
// Like that pin, it pins tables, not agents; TestSnapshotContentPinned does.
// The digest was computed while every figure trained its own agents.
func TestFigure6711TablesPinned(t *testing.T) {
	l := pinLab(t)
	a6, b6, err := l.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	f7, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	a11, b11, err := l.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, f := range append(append([]*Figure{a6, b6}, f7...), a11, b11) {
		if err := WriteTable(&sb, f); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	const want = "8d99d80c29ea676a4e6756823bc10f57ed80b78d3d75c3d0c1641221ec349595"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("figure 6/7/11 tables sha256 = %s, want %s\n%s", got, want, sb.String())
	}
}
