package experiments

import (
	"fmt"
	"io"
	"strings"
)

// WriteTable renders a figure's series as an aligned text table, the form
// the benchmark harness prints (one row per X value, one column per
// series). Series with differing X grids are printed sequentially instead.
func WriteTable(w io.Writer, fig *Figure) error {
	if fig == nil || len(fig.Series) == 0 {
		return fmt.Errorf("experiments: empty figure")
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", fig.ID, fig.Title); err != nil {
		return err
	}
	if fig.Notes != "" {
		if _, err := fmt.Fprintf(w, "   (%s)\n", fig.Notes); err != nil {
			return err
		}
	}
	if sharedGrid(fig.Series) {
		header := []string{"x"}
		for _, s := range fig.Series {
			header = append(header, s.Name)
		}
		if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
			return err
		}
		for i := range fig.Series[0].X {
			row := []string{fmt.Sprintf("%.4g", fig.Series[0].X[i])}
			for _, s := range fig.Series {
				row = append(row, fmt.Sprintf("%.4g", s.Y[i]))
			}
			if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range fig.Series {
		if _, err := fmt.Fprintf(w, "-- %s --\n", s.Name); err != nil {
			return err
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%.4g\t%.4g\n", s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func sharedGrid(series []Series) bool {
	if len(series) == 0 {
		return false
	}
	n := len(series[0].X)
	for _, s := range series[1:] {
		if len(s.X) != n {
			return false
		}
		for i := range s.X {
			if s.X[i] != series[0].X[i] {
				return false
			}
		}
	}
	return true
}

// Steady returns the mean of the last half of a series' Y values — the
// steady-state summary number used when comparing against paper values.
//
//edgeslice:reach kept with TestSteady for comparisons against paper values; no figure prints it yet
func Steady(s Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	tail := s.Y[len(s.Y)/2:]
	var sum float64
	for _, v := range tail {
		sum += v
	}
	return sum / float64(len(tail))
}
