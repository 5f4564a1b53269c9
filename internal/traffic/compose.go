package traffic

// Composable sources: the scenario engine expresses traffic programs as a
// base Source wrapped by deterministic, interval-indexed modulators (flash
// crowds, rate ramps, admission gates). Every combinator is a pure function
// of the interval, so composed sources stay deterministic and safe to share
// across goroutines — the property the parallel scenario runner relies on.

// Modulator scales a base source's rate at a given interval.
type Modulator interface {
	FactorAt(interval int) float64
}

// Pulse multiplies the rate by Factor during [Start, Start+Duration) — a
// flash crowd (Factor > 1) or a partial outage of demand (Factor < 1).
type Pulse struct {
	Start    int
	Duration int
	Factor   float64
}

// FactorAt implements Modulator.
func (p Pulse) FactorAt(interval int) float64 {
	if interval >= p.Start && interval < p.Start+p.Duration {
		return p.Factor
	}
	return 1
}

// Ramp interpolates the rate multiplier linearly from 1 to To over
// [Start, Start+Duration) and holds To afterwards — a gradual load increase
// (To > 1) or decay (To < 1).
type Ramp struct {
	Start    int
	Duration int
	To       float64
}

// FactorAt implements Modulator.
func (r Ramp) FactorAt(interval int) float64 {
	switch {
	case interval < r.Start || r.Duration <= 0:
		return 1
	case interval >= r.Start+r.Duration:
		return r.To
	default:
		frac := float64(interval-r.Start) / float64(r.Duration)
		return 1 + (r.To-1)*frac
	}
}

// Gate passes traffic only inside the admission window [Start, End); End <= 0
// means the window never closes. It models slice admission and teardown: a
// slice admitted at interval a and torn down at interval b contributes no
// arrivals outside [a, b).
type Gate struct {
	Start int
	End   int
}

// FactorAt implements Modulator.
func (g Gate) FactorAt(interval int) float64 {
	if interval < g.Start {
		return 0
	}
	if g.End > 0 && interval >= g.End {
		return 0
	}
	return 1
}

// Modulated applies a stack of modulators multiplicatively to a base source.
type Modulated struct {
	Base Source
	Mods []Modulator
}

// Rate implements Source.
func (m Modulated) Rate(interval int) float64 {
	rate := m.Base.Rate(interval)
	for _, mod := range m.Mods {
		rate *= mod.FactorAt(interval)
	}
	if rate < 0 {
		return 0
	}
	return rate
}
