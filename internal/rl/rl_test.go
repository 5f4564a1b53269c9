package rl

import "testing"

func TestAgentFunc(t *testing.T) {
	called := false
	var a Agent = AgentFunc(func(s []float64) []float64 {
		called = true
		return s
	})
	out := a.Act([]float64{1, 2})
	if !called || len(out) != 2 {
		t.Error("AgentFunc should delegate")
	}
}
