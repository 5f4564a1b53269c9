package ckpt_test

import (
	"testing"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/rl"
)

// replayContent returns a snapshot's replay ring, ok false when it holds
// none: the one accessor of TestSnapshotContentPinned that follows the
// checkpoint's layout.
func replayContent(t *testing.T, st *ckpt.AgentState) (capacity, next int, trs []rl.Transition, ok bool) {
	t.Helper()
	if st.Replay == nil {
		return 0, 0, nil, false
	}
	trs, err := st.Replay.Transitions(st.StateDim, st.ActionDim)
	if err != nil {
		t.Fatal(err)
	}
	return st.Replay.Capacity, st.Replay.Next, trs, true
}
