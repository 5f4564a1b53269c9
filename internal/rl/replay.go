package rl

import (
	"fmt"
	"math/rand"
)

// ReplayBuffer is a fixed-capacity ring buffer of transitions with uniform
// random sampling, the experience replay memory of Fig. 3. Eviction is
// FIFO: once the buffer is full, each Add overwrites the oldest stored
// transition. Storage grows by append up to capacity, so a short training
// pays for the transitions it stores, not for the whole ring.
type ReplayBuffer struct {
	capacity int
	buf      []Transition
	next     int // eviction cursor: index of the oldest transition once full
}

// NewReplayBuffer returns a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: invalid replay capacity %d", capacity))
	}
	return &ReplayBuffer{capacity: capacity}
}

// Add stores a transition, evicting the oldest when full.
func (b *ReplayBuffer) Add(t Transition) {
	if len(b.buf) < b.capacity {
		b.buf = append(b.buf, t)
		return
	}
	b.buf[b.next] = t
	b.next = (b.next + 1) % b.capacity
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return len(b.buf) }

// ReplayState is the serializable snapshot of a replay buffer: capacity,
// the eviction cursor, and the stored transitions in storage order. It
// captures the buffer exactly — a restored buffer produces the same sample
// and eviction sequences as the original.
type ReplayState struct {
	Capacity    int          `json:"capacity"`
	Next        int          `json:"next"`
	Transitions []Transition `json:"transitions"`
}

// State returns a snapshot of the buffer. The transition structs are
// copied; their inner state/action slices are shared (they are never
// mutated after Add).
func (b *ReplayBuffer) State() ReplayState {
	return ReplayState{
		Capacity:    b.capacity,
		Next:        b.next,
		Transitions: append([]Transition(nil), b.buf...),
	}
}

// RestoreReplay rebuilds a buffer from a snapshot.
func RestoreReplay(st ReplayState) (*ReplayBuffer, error) {
	if st.Capacity <= 0 {
		return nil, fmt.Errorf("rl: replay snapshot capacity %d must be positive", st.Capacity)
	}
	if len(st.Transitions) > st.Capacity {
		return nil, fmt.Errorf("rl: replay snapshot holds %d transitions, capacity %d", len(st.Transitions), st.Capacity)
	}
	if st.Next < 0 || (st.Next != 0 && st.Next >= st.Capacity) {
		return nil, fmt.Errorf("rl: replay snapshot cursor %d out of range [0, %d)", st.Next, st.Capacity)
	}
	// A live buffer keeps next == 0 until it fills; a non-zero cursor on a
	// partial buffer would evict newest-first after it fills.
	if st.Next != 0 && len(st.Transitions) < st.Capacity {
		return nil, fmt.Errorf("rl: replay snapshot cursor %d with %d/%d transitions breaks FIFO order", st.Next, len(st.Transitions), st.Capacity)
	}
	return &ReplayBuffer{
		capacity: st.Capacity,
		next:     st.Next,
		buf:      append([]Transition(nil), st.Transitions...),
	}, nil
}

// SampleInto fills out with uniformly sampled transitions (with
// replacement), letting training loops reuse one batch buffer across
// updates instead of allocating per step. It returns an error if the
// buffer is empty or out has zero length.
func (b *ReplayBuffer) SampleInto(rng *rand.Rand, out []Transition) error {
	if len(out) == 0 {
		return fmt.Errorf("rl: invalid sample size %d", len(out))
	}
	if len(b.buf) == 0 {
		return fmt.Errorf("rl: sample from empty replay buffer")
	}
	for i := range out {
		out[i] = b.buf[rng.Intn(len(b.buf))]
	}
	return nil
}
