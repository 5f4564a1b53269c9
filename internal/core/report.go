package core

import (
	"fmt"
	"io"
	"strings"
)

// WriteReport writes a run's report: for an exact History the per-period
// table (per-slice performance summed over RAs, SLA flags, residuals), for a
// streaming one a heading; then, if any intervals ran, the summary of
// steady-state performance, its StreamQuantiles, SLA satisfaction, the
// capacity violation rate (the share of intervals whose raw action broke
// constraint (3)) and last residuals.
func WriteReport(w io.Writer, h *History) error {
	var b strings.Builder
	if h.Streaming() {
		fmt.Fprintf(&b, "streaming history (window %d): %d periods, %d intervals retained as summaries\n",
			h.window, h.Periods(), h.Intervals())
	} else {
		b.WriteString("period | per-slice performance (sum over RAs) | SLA met | residuals\n")
		for p := range h.Periods() {
			perf, sla, primal, dual := h.Period(p)
			fmt.Fprintf(&b, "%6d | [", p)
			for i, row := range perf {
				var sum float64
				for _, v := range row {
					sum += v
				}
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%.1f", sum)
			}
			fmt.Fprintf(&b, "] | %v | primal=%.2f dual=%.2f\n", sla, primal, dual)
		}
	}
	if h.Intervals() > 0 {
		if err := writeSummary(&b, h); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSummary writes the summary of a History with intervals, after a
// blank line that ends an exact History's table.
func writeSummary(b *strings.Builder, h *History) error {
	mp, err := h.MeanSystemPerf(h.Intervals() / 2)
	if err != nil {
		return err
	}
	if !h.Streaming() {
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "steady-state system performance: %.2f per interval\n", mp)
	for _, q := range StreamQuantiles {
		v, err := h.SystemPerfQuantile(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "system performance p%g: %.2f\n", q*100, v)
	}
	sla, err := h.SLASatisfactionRate(0)
	if err != nil {
		return err
	}
	viol, err := h.ViolationRate()
	if err != nil {
		return err
	}
	primal, dual := h.LastResiduals()
	fmt.Fprintf(b, "SLA satisfaction: %.0f%%\ncapacity violation rate: %.3f\nfinal residuals: primal=%.2f dual=%.2f\n",
		sla*100, viol, primal, dual)
	return nil
}
