package offpolicy

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"
)

// replayBuffer is a fixed-capacity ring buffer of transitions with uniform
// random sampling, the experience replay memory of Fig. 3. Eviction is
// FIFO: once the buffer is full, each Add overwrites the oldest stored
// transition. Each transition is a row of one pointer-free array, state |
// action | reward | next state | done (0 or 1) as checkpoints store it.
// Storage grows up to capacity as rows are added, so a short training pays
// for the transitions it stores, not for the whole ring.
type replayBuffer struct {
	capacity, width     int // width: values per row
	stateDim, actionDim int
	rows                []float64
	next                int // eviction cursor: index of the oldest transition once full
}

// newReplayBuffer returns a buffer holding at most capacity > 0
// transitions of stateDim-wide states and actionDim-wide actions.
func newReplayBuffer(capacity, stateDim, actionDim int) *replayBuffer {
	return &replayBuffer{capacity: capacity, width: 2*stateDim + actionDim + 2, stateDim: stateDim, actionDim: actionDim}
}

// reserve makes room for n more rows, never past capacity.
func (b *replayBuffer) reserve(n int) {
	b.rows = slices.Grow(b.rows, min(b.capacity, b.Len()+n)*b.width-len(b.rows))
}

// Add copies a transition into the next row, evicting the oldest when
// full; the buffer keeps none of t's slices.
//
//edgeslice:noalloc
func (b *replayBuffer) Add(t rl.Transition) {
	sd, ad, w := b.stateDim, b.actionDim, b.width
	if len(t.State) != sd || len(t.Action) != ad || len(t.NextState) != sd {
		panic(fmt.Sprintf("offpolicy: transition of %d/%d/%d values, want %d/%d/%d", len(t.State), len(t.Action), len(t.NextState), sd, ad, sd))
	}
	i := b.next
	if n := b.Len(); n < b.capacity {
		if len(b.rows)+w > cap(b.rows) {
			b.reserve(max(n, 1)) // double
		}
		b.rows, i = b.rows[:len(b.rows)+w], n
	} else {
		b.next = (b.next + 1) % b.capacity
	}
	row := b.rows[i*w : (i+1)*w]
	copy(row, t.State)
	copy(row[sd:], t.Action)
	row[sd+ad] = t.Reward
	copy(row[sd+ad+1:], t.NextState)
	row[w-1] = 0
	if t.Done {
		row[w-1] = 1
	}
}

// Len returns the number of stored transitions.
func (b *replayBuffer) Len() int { return len(b.rows) / b.width }

// State returns a snapshot of the buffer: a point-in-time copy.
func (b *replayBuffer) State() *ckpt.ReplayState {
	return ckpt.EncodeReplay(b.capacity, b.next, b.rows)
}

// restoreReplay rebuilds st's replay buffer exactly, so that it samples and
// evicts as the buffer it was taken from, or returns an empty one of the
// given capacity when the snapshot has none.
func restoreReplay(st *ckpt.AgentState, capacity int) (*replayBuffer, error) {
	b := newReplayBuffer(capacity, st.StateDim, st.ActionDim)
	r := st.Replay
	if r == nil {
		return b, nil
	}
	var err error
	if b.rows, err = r.Rows(st.StateDim, st.ActionDim); err != nil {
		return nil, fmt.Errorf("%s: %w", st.Algo, err)
	}
	b.capacity, b.next = r.Capacity, r.Next
	// A live buffer's cursor stays 0 until the buffer fills; a non-zero
	// cursor on a partial buffer would evict newest-first after it fills.
	if n := b.Len(); r.Capacity <= 0 || n > r.Capacity || r.Next < 0 || r.Next != 0 && (r.Next >= r.Capacity || n < r.Capacity) {
		return nil, fmt.Errorf("%s: replay snapshot of %d transitions, cursor %d, is no FIFO ring of capacity %d", st.Algo, n, r.Next, r.Capacity)
	}
	return b, nil
}

// SampleInto fills out with uniformly sampled transitions (with
// replacement), views into the buffer's rows that stay valid until the
// next Add. It returns an error if the buffer is empty or out has zero
// length.
//
//edgeslice:noalloc
func (b *replayBuffer) SampleInto(rng *rand.Rand, out []rl.Transition) error {
	n := b.Len()
	if len(out) == 0 {
		//edgeslice:allocok cold error path
		return fmt.Errorf("offpolicy: invalid sample size %d", len(out))
	}
	if n == 0 {
		//edgeslice:allocok cold error path
		return fmt.Errorf("offpolicy: sample from empty replay buffer")
	}
	sd, ad, w := b.stateDim, b.actionDim, b.width
	for i := range out {
		row := b.rows[rng.IntN(n)*w:][:w:w]
		out[i] = rl.Transition{State: row[:sd:sd], Action: row[sd : sd+ad : sd+ad], Reward: row[sd+ad],
			NextState: row[sd+ad+1 : w-1 : w-1], Done: row[w-1] == 1}
	}
	return nil
}
