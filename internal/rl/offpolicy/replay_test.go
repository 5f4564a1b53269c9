package offpolicy

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(3, 0)) }

// fromState restores a buffer of stateDim-wide states and actionDim-wide
// actions through a snapshot that holds only it.
func fromState(rs *ckpt.ReplayState, stateDim, actionDim int) (*replayBuffer, error) {
	return restoreReplay(&ckpt.AgentState{StateDim: stateDim, ActionDim: actionDim, Replay: rs}, 0)
}

func TestReplayBufferEviction(t *testing.T) {
	b := newReplayBuffer(3, 0, 0)
	for i := 0; i < 5; i++ {
		b.Add(rl.Transition{Reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	rng := newRNG()
	samples := make([]rl.Transition, 100)
	if err := b.SampleInto(rng, samples); err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Reward < 2 {
			t.Fatalf("sampled evicted transition with reward %v", s.Reward)
		}
	}
}

func TestReplayBufferEmptySample(t *testing.T) {
	b := newReplayBuffer(4, 0, 0)
	if err := b.SampleInto(newRNG(), make([]rl.Transition, 1)); err == nil {
		t.Error("sampling empty buffer should fail")
	}
}

func TestReplayBufferRejectsNonPositiveSample(t *testing.T) {
	b := newReplayBuffer(4, 0, 0)
	b.Add(rl.Transition{Reward: 1})
	if err := b.SampleInto(newRNG(), nil); err == nil {
		t.Error("empty destination should fail")
	}
}

// Eviction is FIFO: with capacity c, the buffer always holds exactly the
// last c added transitions.
func TestReplayBufferFIFOEvictionOrder(t *testing.T) {
	const capacity = 4
	b := newReplayBuffer(capacity, 0, 0)
	for i := 0; i < 11; i++ {
		b.Add(rl.Transition{Reward: float64(i)})
	}
	got := map[float64]bool{}
	for r := 0; r < len(b.rows); r += b.width {
		got[b.rows[r]] = true // a zero-width row is reward | done
	}
	for i := 11 - capacity; i < 11; i++ {
		if !got[float64(i)] {
			t.Errorf("transition %d evicted although it is among the newest %d", i, capacity)
		}
	}
	if len(got) != capacity {
		t.Errorf("buffer holds %d distinct transitions, want %d", len(got), capacity)
	}
}

// The ring is a model of a FIFO of rows: against a plain list of rows,
// the storage order, the eviction cursor and the seeded sample sequence
// agree after every Add across the first wrap, and a buffer restored from a
// snapshot taken before, at or after the wrap continues exactly like the
// original. State and action differ in every transition, so a row laid out
// in any other order than state | action | reward | next state | done fails.
func TestReplayBufferWrapSequence(t *testing.T) {
	const capacity, adds = 5, 13
	flat := func(tr rl.Transition) []float64 {
		done := 0.0
		if tr.Done {
			done = 1
		}
		return slices.Concat(tr.State, tr.Action, []float64{tr.Reward}, tr.NextState, []float64{done})
	}
	for _, snapAt := range []int{3, capacity, 8} { // before, at and after the first wrap
		live := newReplayBuffer(capacity, 1, 2)
		var restored *replayBuffer
		var model [][]float64 // model[i] is storage slot i
		seeded := func(i int) *rand.Rand { return rand.New(rand.NewPCG(uint64(i), 0)) }
		for i := 0; i < adds; i++ {
			x := float64(i)
			tr := rl.Transition{State: []float64{x}, Action: []float64{x + 0.25, x + 0.5}, Reward: 10 * x, NextState: []float64{x + 1}, Done: i%3 == 0}
			live.Add(tr)
			if restored != nil {
				restored.Add(tr)
			}
			if len(model) < capacity {
				model = append(model, flat(tr))
			} else {
				model[i%capacity] = flat(tr) // FIFO: slot of the oldest
			}
			if i+1 == snapAt {
				var err error
				if restored, err = fromState(live.State(), 1, 2); err != nil {
					t.Fatal(err)
				}
			}

			st := live.State()
			rows, err := st.Rows(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if want := slices.Concat(model...); !slices.Equal(rows, want) {
				t.Fatalf("snap %d, add %d: storage %v, want %v", snapAt, i, rows, want)
			}
			wantNext := 0
			if i >= capacity {
				wantNext = (i + 1) % capacity
			}
			if st.Next != wantNext || st.Capacity != capacity {
				t.Fatalf("snap %d, add %d: cursor %d capacity %d, want %d and %d", snapAt, i, st.Next, st.Capacity, wantNext, capacity)
			}
			got := make([]rl.Transition, 7)
			if err := live.SampleInto(seeded(i), got); err != nil {
				t.Fatal(err)
			}
			modelRNG := seeded(i)
			for k := range got {
				if want := model[modelRNG.IntN(len(model))]; !slices.Equal(flat(got[k]), want) {
					t.Fatalf("snap %d, add %d: sample %d is %v, want %v", snapAt, i, k, flat(got[k]), want)
				}
			}
			if restored == nil {
				continue
			}
			if !reflect.DeepEqual(restored.State(), st) {
				t.Fatalf("snap %d, add %d: restored state %+v, live %+v", snapAt, i, restored.State(), st)
			}
			again := make([]rl.Transition, 7)
			if err := restored.SampleInto(seeded(i), again); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("snap %d, add %d: restored samples %v, live %v", snapAt, i, again, got)
			}
		}
	}
}

// A short run must not pay for the whole ring: storage follows what was
// stored, and never passes capacity once it wraps.
func TestReplayBufferGrowsOnDemand(t *testing.T) {
	b := newReplayBuffer(100_000, 0, 0)
	for i := 0; i < 100; i++ {
		b.Add(rl.Transition{Reward: float64(i)})
	}
	if c := cap(b.rows) / b.width; c >= 1000 {
		t.Errorf("100 transitions hold storage for %d, want it near 100", c)
	}
	r, err := fromState(b.State(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(r.rows) / r.width; c >= 1000 {
		t.Errorf("restored 100 transitions hold storage for %d, want it near 100", c)
	}
}

func TestReplayBufferSampleInto(t *testing.T) {
	b := newReplayBuffer(8, 0, 0)
	for i := 0; i < 8; i++ {
		b.Add(rl.Transition{Reward: float64(i)})
	}
	batch := make([]rl.Transition, 5)
	if err := b.SampleInto(newRNG(), batch); err != nil {
		t.Fatal(err)
	}
	for _, tr := range batch {
		if tr.Reward < 0 || tr.Reward > 7 {
			t.Errorf("sampled transition with out-of-range reward %v", tr.Reward)
		}
	}
	rng := newRNG()
	allocs := testing.AllocsPerRun(20, func() {
		if err := b.SampleInto(rng, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SampleInto allocates %v objects per call, want 0", allocs)
	}
}

// Property: buffer length never exceeds capacity and equals min(adds, cap).
func TestReplayBufferLenProperty(t *testing.T) {
	f := func(addsRaw uint8, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		adds := int(addsRaw) % 64
		b := newReplayBuffer(capacity, 0, 0)
		for i := 0; i < adds; i++ {
			b.Add(rl.Transition{})
		}
		want := adds
		if want > capacity {
			want = capacity
		}
		return b.Len() == want && b.capacity == capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Past warm-up, each DDPG exploration action decays the noise std, down to
// its floor.
func TestGaussianNoiseDecay(t *testing.T) {
	cfg := DefaultConfig(DDPG) // std 1, decay 0.9999, floor 0.01
	cfg.Hidden, cfg.WarmupSteps = 4, 0
	a, err := New(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start, state := a.noiseStd, []float64{0.5, -0.5}
	for i := 0; i < 1000; i++ {
		a.ActExplore(state)
	}
	if a.noiseStd >= start {
		t.Errorf("noise std did not decay: %v -> %v", start, a.noiseStd)
	}
	for i := 0; i < 200000; i++ {
		a.ActExplore(state)
	}
	if a.noiseStd != a.cfg.NoiseMin {
		t.Errorf("noise std %v should have floored at %v", a.noiseStd, a.cfg.NoiseMin)
	}
}
