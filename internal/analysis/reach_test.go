package analysis_test

import (
	"testing"

	"edgeslice/internal/analysis"
	"edgeslice/internal/analysis/analysistest"
)

func TestReach(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Reach,
		"reach/cmd/app", "reach/internal/lib", "reach/internal/libtest")
}
