package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeslice/internal/analysis"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// TestRealTreeClean is the in-process version of the CI gate: every
// analyzer over every package of the module must report nothing. A
// failure here means a determinism/allocation/lock invariant regressed
// (fix it) or a justified exception lost its annotation (restore it).
func TestRealTreeClean(t *testing.T) {
	loader := analysis.NewLoader(moduleRoot(t), "edgeslice")
	pkgs, err := loader.LoadTree()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the tree walk is missing most of the module", len(pkgs))
	}
	for _, d := range analysis.RunAnalyzers(pkgs, analysis.All()) {
		t.Errorf("%s", d)
	}
}

// TestMutatedRegistryLosesSortIsFlagged demonstrates the gate is live on
// a real site: neutering the sort.Strings call that makes
// scenario.List's map iteration deterministic must produce a maporder
// diagnostic.
func TestMutatedRegistryLosesSortIsFlagged(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "scenario", "registry.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const sortCall = "sort.Strings(out)"
	if !strings.Contains(string(src), sortCall) {
		t.Fatalf("expected %s to contain %q; the List() idiom moved — update this test", target, sortCall)
	}
	mutated := strings.Replace(string(src), sortCall, "sort.Strings(nil)", 1)

	loader := analysis.NewLoader(root, "edgeslice")
	loader.Overlay = map[string][]byte{target: []byte(mutated)}
	pkg, err := loader.Load("edgeslice/internal/scenario")
	if err != nil {
		t.Fatalf("load mutated scenario package: %v", err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.MapOrder})
	found := false
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "registry.go" && strings.Contains(d.Message, "range over map") {
			found = true
		}
	}
	if !found {
		t.Fatalf("maporder missed the unsorted map iteration in mutated registry.go; got %v", diags)
	}
}

// TestMutatedReaperClosesUnderLockIsFlagged guards the liveness reaper's
// lock discipline: reapOnce collects timed-out conns under the hub lock
// and closes them after releasing it, because closing a TCP conn can block
// flushing the socket and would stall every registration and report behind
// one dead peer. Moving the close loop back under the lock must trip
// lockio.
func TestMutatedReaperClosesUnderLockIsFlagged(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "rcnet", "hub.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const reapShape = "\th.mu.Unlock()\n\tfor _, st := range victims {\n\t\th.stats.reaped.Add(1)\n\t\t_ = st.conn.Close()\n\t}"
	if !strings.Contains(string(src), reapShape) {
		t.Fatalf("expected %s to contain the reapOnce unlock-then-close shape; reapOnce changed — update this test", target)
	}
	mutated := strings.Replace(string(src), reapShape,
		"\tfor _, st := range victims {\n\t\th.stats.reaped.Add(1)\n\t\t_ = st.conn.Close()\n\t}\n\th.mu.Unlock()", 1)

	loader := analysis.NewLoader(root, "edgeslice")
	loader.Overlay = map[string][]byte{target: []byte(mutated)}
	pkg, err := loader.Load("edgeslice/internal/rcnet")
	if err != nil {
		t.Fatalf("load mutated rcnet package: %v", err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.LockIO})
	found := false
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "hub.go" &&
			strings.Contains(d.Message, "Close on") && strings.Contains(d.Message, "h.mu") {
			found = true
		}
	}
	if !found {
		t.Fatalf("lockio missed the reaper closing conns under the hub lock; got %v", diags)
	}
}

// TestMutatedForwardLosesWorkspaceIsFlagged is the allocation-side
// mutation demo: replacing Forward1WS's workspace draw with a heap
// allocation must trip noalloc.
func TestMutatedForwardLosesWorkspaceIsFlagged(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "nn", "network.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const wsDraw = "in := ws.Next(1, len(x))"
	if !strings.Contains(string(src), wsDraw) {
		t.Fatalf("expected %s to contain %q; Forward1WS changed — update this test", target, wsDraw)
	}
	mutated := strings.Replace(string(src), wsDraw,
		"in := &Matrix{Rows: 1, Cols: len(x), Data: make([]float64, len(x))}", 1)

	loader := analysis.NewLoader(root, "edgeslice")
	loader.Overlay = map[string][]byte{target: []byte(mutated)}
	pkg, err := loader.Load("edgeslice/internal/nn")
	if err != nil {
		t.Fatalf("load mutated nn package: %v", err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.NoAlloc})
	var sawMake, sawLit bool
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != "network.go" {
			continue
		}
		if strings.Contains(d.Message, "make allocates") {
			sawMake = true
		}
		if strings.Contains(d.Message, "composite literal allocates") {
			sawLit = true
		}
	}
	if !sawMake || !sawLit {
		t.Fatalf("noalloc missed the de-workspaced Forward1WS (make=%v, lit=%v); got %v", sawMake, sawLit, diags)
	}
}

// TestMutatedAdmmUnusedFuncIsFlagged shows the reach gate is live on a real
// package: an exported func, or a method of the live Coordinator, that no
// binary calls must trip it. Only admm is analyzed, but the walk covers
// every loaded package, so admm's live symbols stay silent and the one
// finding is the addition.
func TestMutatedAdmmUnusedFuncIsFlagged(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "admm", "admm.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ add, want string }{
		{"func Unused() {}", "func Unused is reached from no main"},
		{"func (c *Coordinator) Unused() {}", "method Coordinator.Unused is reached from no main"},
	} {
		loader := analysis.NewLoader(root, "edgeslice")
		loader.Overlay = map[string][]byte{target: append(src, "\n"+tc.add+"\n"...)}
		pkgs, err := loader.LoadTree()
		if err != nil {
			t.Fatalf("load module: %v", err)
		}
		var admm []*analysis.Package
		for _, p := range pkgs {
			if p.Path == "edgeslice/internal/admm" {
				admm = append(admm, p)
			}
		}
		diags := analysis.RunAnalyzers(admm, []*analysis.Analyzer{analysis.Reach})
		if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "admm.go" ||
			!strings.Contains(diags[0].Message, tc.want) {
			t.Fatalf("reach should flag exactly the added %q; got %v", tc.add, diags)
		}
	}
}
