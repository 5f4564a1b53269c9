//go:build amd64 && !race

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// The WriteTable output of Figs. 8, 9 and 10 at a small fixed scale is
// pinned across commits: every DDPG agent they deploy (Fig. 8's two, Fig.
// 9's per-slice-count agents with its 2000 warm-up steps, Fig. 10's) comes
// out of the same training path, acts identically, and the figure code
// formats the same numbers. 2400 steps is above Fig. 9's warm-up, so its
// noise and warm-up settings are exercised. The digest was computed while
// the figures trained their agents outside System.Train. amd64 only and
// not under -race, as the other training pins.
func TestFigureTablesPinned(t *testing.T) {
	o := Options{TrainSteps: 2400, Periods: 2, Seed: 3, Hidden: 8, Batch: 16}
	var figs []*Figure
	cdf, ratios, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	figs = append(append(figs, cdf), ratios...)
	a9, b9, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	a10, b10, err := Fig10(o)
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
