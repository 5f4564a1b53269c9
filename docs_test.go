package edgeslice_test

import (
	"os"
	"regexp"
	"slices"
	"testing"
)

var citedTestName = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z]\w*`)

// TestDocsCiteExistingTests keeps DESIGN.md and README.md honest the way
// TestCIRunFiltersMatchTests keeps ci.yml: every Test* or Benchmark* name
// they cite must still be a top-level function of the module (bench/, its
// own module, excluded), so a renamed or deleted test cannot leave the docs
// pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	names := testNames(t, "./...", "Test", "Benchmark")
	cited := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTestName.FindAllString(string(text), -1) {
			if !slices.Contains(names, name) {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
			cited++
		}
	}
	if cited < 10 {
		t.Fatalf("found only %d test names in the docs: the extraction is broken", cited)
	}
	t.Logf("checked %d citations against %d test and benchmark functions", cited, len(names))
}

// designMaxBytes is DESIGN.md's size when this cap was set. The document
// may shrink but never grow: a change that adds text deletes as much.
const designMaxBytes = 71392

// TestDesignDocSizeCapped holds DESIGN.md to designMaxBytes.
func TestDesignDocSizeCapped(t *testing.T) {
	info, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := info.Size(); n > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte cap: delete as much as you add", n, designMaxBytes)
	}
}
