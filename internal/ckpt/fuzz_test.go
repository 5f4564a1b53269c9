package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"runtime"
	"testing"

	"edgeslice/internal/ckpt"
)

// decodeAllocBound is what Decode may allocate for an input of n bytes:
// the header's values and its canonical re-encoding, never a declared
// tensor, plus slack for the runtime's own allocations.
func decodeAllocBound(n int) uint64 { return 128*uint64(n) + 64<<10 }

// hugeTensorFile is a well-formed file whose header declares a 2⁴⁰-value
// actor over a 64-byte payload.
func hugeTensorFile(t testing.TB) []byte {
	t.Helper()
	c := &ckpt.Checkpoint{Format: ckpt.Format, Algorithm: "EdgeSlice", Agents: []*ckpt.AgentState{{
		Algo: "ddpg", StateDim: 3, ActionDim: 2, Config: json.RawMessage("{}"),
		Nets: map[string]*ckpt.Tensor{"actor": {In: 3, Layers: []ckpt.Layer{{Out: 2, Act: "sigmoid"}}}},
	}}}
	c.Agents[0].Nets["actor"].Len = 1 << 40
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	b = append(append(b, '\n'), make([]byte, 64)...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzDecodeCheckpoint: no byte sequence panics Decode or makes it
// allocate more than decodeAllocBound, and whatever it accepts writes back
// byte for byte.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := goldenFile(f)
	f.Add(valid)
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		f.Add(valid[:n])
	}
	v3, err := os.ReadFile("testdata/v3-ddpg.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Add(hugeTensorFile(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ckpt.Decode(data)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(data)); got > bound {
			t.Fatalf("Decode of %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, c); err != nil {
			t.Fatalf("Write of a decoded checkpoint: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("Decode then Write changed the %d-byte input", len(data))
		}
	})
}
