// Package traffic generates the slice traffic that drives the
// simulated network environment (Sec. VI-B): Poisson arrivals for the
// prototype experiments (arrival rate 10, Sec. VII-C) and a diurnal,
// per-area trace synthesizer standing in for the Telecom Italia dataset
// over the Province of Trento used in the simulations (Sec. VII-D) —
// the original 154.8M-entry dataset is proprietary and offline, so we
// reproduce its published statistical shape: 24-hour average calling
// volume per geographic area (see DESIGN.md §5).
package traffic

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// Source yields the expected traffic arrival rate for a time interval.
// Implementations must be deterministic for the same interval.
type Source interface {
	Rate(interval int) float64
}

// ConstantSource is a stationary source with a fixed rate, used for the
// prototype experiments' Poisson(10) task arrivals.
type ConstantSource struct {
	Lambda float64
}

// Rate implements Source.
func (c ConstantSource) Rate(int) float64 { return c.Lambda }

// VariableSource draws a fresh arrival rate uniformly from [Lo, Hi] for
// every block of BlockLen intervals. The rate sequence is a pure function
// of (Seed, interval), so the source is deterministic and safe to share.
// With Lo+Hi = 2λ it realizes the paper's "Poisson process with average
// arrival rate λ" while exercising the temporal traffic dynamics that make
// queue-aware orchestration matter (Sec. VII-C).
type VariableSource struct {
	Lo, Hi   float64
	BlockLen int
	Seed     int64
}

// Rate implements Source.
func (v VariableSource) Rate(interval int) float64 {
	if v.BlockLen <= 0 || v.Hi <= v.Lo {
		return v.Lo
	}
	block := interval / v.BlockLen
	if interval < 0 {
		block = -interval / v.BlockLen // stay deterministic for negatives
	}
	// SplitMix64-style hash of (seed, block) -> uniform [0,1).
	x := uint64(v.Seed)*0x9E3779B97F4A7C15 + uint64(block)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	frac := float64(x>>11) / float64(1<<53)
	return v.Lo + (v.Hi-v.Lo)*frac
}

// Profile is a cyclic rate profile; Rate wraps around its length. It models
// the "average calling traffic in 24 hours" series the paper extracts from
// the Trento trace.
type Profile struct {
	Rates []float64
	Scale float64
}

// Rate implements Source.
func (p Profile) Rate(interval int) float64 {
	if len(p.Rates) == 0 {
		return 0
	}
	idx := interval % len(p.Rates)
	if idx < 0 {
		idx += len(p.Rates)
	}
	s := p.Scale
	if s == 0 {
		s = 1
	}
	return p.Rates[idx] * s
}

// Trace is a set of per-area 24-hour traffic profiles.
type Trace struct {
	// Areas maps a geographic square area id to its hourly profile.
	Areas map[int][]float64
	// Hours is the profile length (24 for the Trento trace).
	Hours int
}

// SynthesizeTrentoLike builds a trace with the diurnal structure reported
// for the Telecom Italia Trento dataset: a deep night trough (~03:00), a
// morning ramp, a midday plateau, and an evening peak (~20:00), with
// per-area amplitude and phase variation. Rates are normalized so each
// area's daily mean is 1.0; callers scale to their workload.
func SynthesizeTrentoLike(rng *rand.Rand, numAreas int) (*Trace, error) {
	if numAreas <= 0 {
		return nil, fmt.Errorf("traffic: numAreas %d must be positive", numAreas)
	}
	const hours = 24
	tr := &Trace{Areas: make(map[int][]float64, numAreas), Hours: hours}
	for a := 0; a < numAreas; a++ {
		amp := 0.5 + rng.Float64()*0.4   // diurnal swing
		phase := rng.NormFloat64() * 0.8 // hours of peak shift
		eveningBoost := 0.2 + rng.Float64()*0.4
		noise := 0.03 + rng.Float64()*0.04
		profile := make([]float64, hours)
		for h := 0; h < hours; h++ {
			t := float64(h) + phase
			// Base diurnal: minimum near 03:00, broad daytime activity.
			base := 1 + amp*math.Sin(2*math.Pi*(t-9)/24)
			// Evening peak near 20:00.
			evening := eveningBoost * math.Exp(-0.5*math.Pow((t-20)/2.5, 2))
			v := base + evening + rng.NormFloat64()*noise
			if v < 0.05 {
				v = 0.05
			}
			profile[h] = v
		}
		normalizeMean(profile)
		tr.Areas[a] = profile
	}
	return tr, nil
}

func normalizeMean(p []float64) {
	var sum float64
	for _, v := range p {
		sum += v
	}
	mean := sum / float64(len(p))
	if mean <= 0 {
		return
	}
	for i := range p {
		p[i] /= mean
	}
}

// AreaProfile returns the profile of an area as a Source with the given
// scale, or an error if the area is unknown.
func (t *Trace) AreaProfile(area int, scale float64) (Profile, error) {
	p, ok := t.Areas[area]
	if !ok {
		return Profile{}, fmt.Errorf("traffic: unknown area %d", area)
	}
	return Profile{Rates: append([]float64(nil), p...), Scale: scale}, nil
}

// NumAreas returns the number of areas in the trace.
func (t *Trace) NumAreas() int { return len(t.Areas) }

// WriteCSV serializes the trace as rows of (area, hour, volume).
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"area", "hour", "volume"}); err != nil {
		return fmt.Errorf("traffic: write header: %w", err)
	}
	for area := 0; area < len(t.Areas); area++ {
		profile, ok := t.Areas[area]
		if !ok {
			continue
		}
		for h, v := range profile {
			rec := []string{
				strconv.Itoa(area),
				strconv.Itoa(h),
				strconv.FormatFloat(v, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("traffic: write row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("traffic: flush: %w", err)
	}
	return nil
}
