package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"edgeslice/internal/traffic"
)

// MobilityModel tracks slice users moving among resource autonomies — the
// reason the paper partitions the network into RAs in the first place
// ("network slices ... request end-to-end resources in every RA, in order
// to enable seamless service coverage and support their users mobility",
// Sec. III-A). Each user performs a lazy random walk over RAs: at every
// interval it moves to a uniformly chosen other RA with probability
// MoveProb. An RA's share of a slice's traffic is proportional to the
// users it currently hosts.
//
// The walk is materialized lazily and memoized so that Load queries are
// pure functions of (slice, ra, interval) — the property traffic.Source
// implementations need — while still being cheap for forward-moving
// simulations.
type MobilityModel struct {
	numSlices, numRAs, usersPerSlice int
	moveProb                         float64
	rng                              *rand.Rand

	mu sync.Mutex
	// history[t][slice][user] = RA hosting the user at interval t.
	history [][][]int
}

// NewMobilityModel creates a model with every slice's users initially
// spread round-robin across RAs.
//
//edgeslice:reach user mobility of Sec. III-A, kept with its tests; no scenario drives a MobileSource yet
func NewMobilityModel(seed int64, numSlices, numRAs, usersPerSlice int, moveProb float64) (*MobilityModel, error) {
	if numSlices <= 0 || numRAs <= 0 || usersPerSlice <= 0 {
		return nil, fmt.Errorf("netsim: invalid mobility dims %d/%d/%d", numSlices, numRAs, usersPerSlice)
	}
	if moveProb < 0 || moveProb > 1 {
		return nil, fmt.Errorf("netsim: move probability %v out of [0,1]", moveProb)
	}
	m := &MobilityModel{
		numSlices:     numSlices,
		numRAs:        numRAs,
		usersPerSlice: usersPerSlice,
		moveProb:      moveProb,
		rng:           rand.New(rand.NewSource(seed)), //nolint:gosec // simulation
	}
	initial := make([][]int, numSlices)
	for i := range initial {
		initial[i] = make([]int, usersPerSlice)
		for u := range initial[i] {
			initial[i][u] = u % numRAs
		}
	}
	m.history = append(m.history, initial)
	return m, nil
}

// advanceTo extends the memoized walk to the given interval (caller holds
// the lock).
func (m *MobilityModel) advanceTo(interval int) {
	for len(m.history) <= interval {
		prev := m.history[len(m.history)-1]
		next := make([][]int, m.numSlices)
		for i := range prev {
			next[i] = append([]int(nil), prev[i]...)
			for u := range next[i] {
				if m.numRAs > 1 && m.rng.Float64() < m.moveProb {
					// Move to a uniformly chosen *other* RA.
					hop := m.rng.Intn(m.numRAs - 1)
					if hop >= next[i][u] {
						hop++
					}
					next[i][u] = hop
				}
			}
		}
		m.history = append(m.history, next)
	}
}

// UsersAt returns how many of a slice's users RA ra hosts at the interval.
func (m *MobilityModel) UsersAt(slice, ra, interval int) (int, error) {
	if slice < 0 || slice >= m.numSlices || ra < 0 || ra >= m.numRAs || interval < 0 {
		return 0, fmt.Errorf("netsim: UsersAt(%d, %d, %d) out of range", slice, ra, interval)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceTo(interval)
	var n int
	for _, loc := range m.history[interval][slice] {
		if loc == ra {
			n++
		}
	}
	return n, nil
}

// LoadFactor returns the fraction of a slice's traffic that RA ra carries
// at the interval, scaled by numRAs so a uniform user spread yields 1.0
// (i.e. the per-RA base rate is unchanged on average).
func (m *MobilityModel) LoadFactor(slice, ra, interval int) (float64, error) {
	n, err := m.UsersAt(slice, ra, interval)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(m.usersPerSlice) * float64(m.numRAs), nil
}

// NumRAs returns the number of RAs.
func (m *MobilityModel) NumRAs() int { return m.numRAs }

// MobileSource modulates a base traffic source by a slice's user population
// in one RA: as users hand over between RAs, the arrival rate follows them.
// It implements traffic.Source.
type MobileSource struct {
	Base  traffic.Source
	Model *MobilityModel
	Slice int
	RA    int
}

var _ traffic.Source = MobileSource{}

// Rate implements traffic.Source.
func (s MobileSource) Rate(interval int) float64 {
	if interval < 0 {
		interval = 0
	}
	factor, err := s.Model.LoadFactor(s.Slice, s.RA, interval)
	if err != nil {
		return 0
	}
	return s.Base.Rate(interval) * factor
}
