package lib

import "testing"

// TestReset is the only caller of Counter.Reset.
func TestReset(t *testing.T) { (&Counter{n: 1}).Reset() }
