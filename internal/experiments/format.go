package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// WriteTable renders a figure's series as an aligned text table, the form
// the benchmark harness prints (one row per X value, one column per
// series). Series with differing X grids are printed sequentially instead.
func WriteTable(w io.Writer, fig *Figure) error {
	if fig == nil || len(fig.Series) == 0 {
		return fmt.Errorf("experiments: empty figure")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", fig.ID, fig.Title)
	if fig.Notes != "" {
		fmt.Fprintf(&b, "   (%s)\n", fig.Notes)
	}
	if sharedGrid(fig.Series) {
		b.WriteString("x")
		for _, s := range fig.Series {
			b.WriteString("\t" + s.Name)
		}
		b.WriteString("\n")
		for i, x := range fig.Series[0].X {
			fmt.Fprintf(&b, "%.4g", x)
			for _, s := range fig.Series {
				fmt.Fprintf(&b, "\t%.4g", s.Y[i])
			}
			b.WriteString("\n")
		}
	} else {
		for _, s := range fig.Series {
			fmt.Fprintf(&b, "-- %s --\n", s.Name)
			for i := range s.X {
				fmt.Fprintf(&b, "%.4g\t%.4g\n", s.X[i], s.Y[i])
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sharedGrid reports whether every series has the first's X values; it
// needs at least one series.
func sharedGrid(series []Series) bool {
	for _, s := range series[1:] {
		if !slices.Equal(s.X, series[0].X) {
			return false
		}
	}
	return true
}
