package offpolicy

import (
	"fmt"
	"math/rand/v2"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"
)

// replayBuffer is a fixed-capacity ring buffer of transitions with uniform
// random sampling, the experience replay memory of Fig. 3. Eviction is
// FIFO: once the buffer is full, each Add overwrites the oldest stored
// transition. Storage grows by append up to capacity, so a short training
// pays for the transitions it stores, not for the whole ring.
type replayBuffer struct {
	capacity int
	buf      []rl.Transition
	next     int // eviction cursor: index of the oldest transition once full
}

// newReplayBuffer returns a buffer holding at most capacity > 0 transitions.
func newReplayBuffer(capacity int) *replayBuffer { return &replayBuffer{capacity: capacity} }

// Add stores a transition, evicting the oldest when full.
func (b *replayBuffer) Add(t rl.Transition) {
	if len(b.buf) < b.capacity {
		b.buf = append(b.buf, t)
		return
	}
	b.buf[b.next] = t
	b.next = (b.next + 1) % b.capacity
}

// Len returns the number of stored transitions.
func (b *replayBuffer) Len() int { return len(b.buf) }

// State returns a snapshot of the buffer: a point-in-time copy.
func (b *replayBuffer) State() *ckpt.ReplayState {
	return ckpt.EncodeReplay(b.capacity, b.next, b.buf)
}

// restoreReplay rebuilds st's replay buffer exactly, so that it samples and
// evicts as the buffer it was taken from, or returns an empty one of the
// given capacity when the snapshot has none.
func restoreReplay(st *ckpt.AgentState, capacity int) (*replayBuffer, error) {
	r := st.Replay
	if r == nil {
		return newReplayBuffer(capacity), nil
	}
	trs, err := r.Transitions(st.StateDim, st.ActionDim)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", st.Algo, err)
	}
	// A live buffer's cursor stays 0 until the buffer fills; a non-zero
	// cursor on a partial buffer would evict newest-first after it fills.
	if n := len(trs); r.Capacity <= 0 || n > r.Capacity || r.Next < 0 || r.Next != 0 && (r.Next >= r.Capacity || n < r.Capacity) {
		return nil, fmt.Errorf("%s: replay snapshot of %d transitions, cursor %d, is no FIFO ring of capacity %d", st.Algo, n, r.Next, r.Capacity)
	}
	return &replayBuffer{capacity: r.Capacity, next: r.Next, buf: trs}, nil
}

// SampleInto fills out with uniformly sampled transitions (with
// replacement), letting training loops reuse one batch buffer across
// updates instead of allocating per step. It returns an error if the
// buffer is empty or out has zero length.
func (b *replayBuffer) SampleInto(rng *rand.Rand, out []rl.Transition) error {
	if len(out) == 0 {
		return fmt.Errorf("offpolicy: invalid sample size %d", len(out))
	}
	if len(b.buf) == 0 {
		return fmt.Errorf("offpolicy: sample from empty replay buffer")
	}
	for i := range out {
		out[i] = b.buf[rng.IntN(len(b.buf))]
	}
	return nil
}
