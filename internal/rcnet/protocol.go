// Package rcnet implements the EdgeSlice resource-coordination (RC)
// interface of Sec. V-D as a real network protocol: the central performance
// coordinator communicates with decentralized orchestration agents over TCP
// (RC-L carries coordinating information and performance reports; the same
// channel carries the monitoring summaries of RC-M).
//
// The protocol is period-synchronous, mirroring Algorithm 1:
//
//	agent → hub:  register{ra}
//	hub → agent:  resume{period, zhist, yhist}   (re-registration catch-up)
//	hub → agent:  coordination{period, z, y}
//	agent → hub:  perf_report{ra, period, perf, queues, intervals}
//	agent → hub:  heartbeat{ra}                  (liveness, optional)
//	hub → agent:  shutdown{}
//
// Two wire codecs carry the same envelopes. The historical codec is
// newline-delimited JSON; the binary codec frames the same fields as a
// length-prefixed packet (see binary.go) and cuts the coordinator's
// per-period encode/decode cost at scale. The codec is negotiated at
// register time with zero extra round trips: every frame self-describes
// (JSON frames start with '{', binary frames with the magic byte), the hub
// detects the codec of the register frame, and answers each connection in
// the codec it registered with — so mixed JSON/binary agent fleets work
// against one hub, and pre-binary peers keep working unchanged.
//
// Hub-side writes carry a write deadline (5s)
// and happen outside the hub lock: an agent that stops reading delays the
// RAs written after it in a coordination round by at most one write
// timeout, after which its connection is dropped and it must re-register.
//
// The coordination plane is fault tolerant: a re-registering RA supersedes
// its stale connection and receives a resume frame carrying every
// coordination column broadcast so far, so RunAgent can replay the
// completed periods against a freshly seeded environment and rejoin the
// run mid-flight bit-identically. Agents may send periodic heartbeat
// frames; a hub with liveness enabled (Hub.SetLiveness) reaps connections
// that go silent instead of waiting for the next broadcast write timeout.
// Both frame kinds are ignored by older peers, so mixed-version
// deployments keep working.
//
// One hub coordinates every RA, as the paper's one performance
// coordinator does: the coordinator loop writes each period's columns
// itself in RA order, one reader per connection decodes reports, and the
// coordinator files them by RA index, so the merge order is fixed.
package rcnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types.
const (
	MsgRegister     MsgType = "register"
	MsgCoordination MsgType = "coordination"
	MsgPerfReport   MsgType = "perf_report"
	MsgShutdown     MsgType = "shutdown"
	// MsgHeartbeat is an agent→hub liveness beacon (AgentClient
	// StartHeartbeat); the hub refreshes the connection's last-seen stamp
	// on every frame it reads, heartbeats included.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgResume is sent hub→agent right after a registration when the run
	// is already past period 0: Period is the first period the agent must
	// execute live, and ZHist/YHist carry this RA's coordination column
	// for every earlier period so the agent can replay them locally.
	MsgResume MsgType = "resume"
)

// Envelope is the wire form of every message.
type Envelope struct {
	Type   MsgType   `json:"type"`
	RA     int       `json:"ra,omitempty"`
	Period int       `json:"period,omitempty"`
	Z      []float64 `json:"z,omitempty"`
	Y      []float64 `json:"y,omitempty"`
	Perf   []float64 `json:"perf,omitempty"`
	Queues []int     `json:"queues,omitempty"` // RC-M monitoring payload
	// Intervals carries the period's per-interval records (one entry per
	// orchestration interval, in order). Agents driven by RunAgent always
	// include them; they let the coordinator side reconstruct the same
	// History a local run records. Absent in reports
	// from pre-engine agent builds.
	Intervals []IntervalRecord `json:"intervals,omitempty"`
	// ZHist/YHist are only set on MsgResume frames: the RA's coordination
	// columns for periods [0, Period), in period order, so a re-registered
	// agent can replay the completed prefix of the run.
	ZHist [][]float64 `json:"zhist,omitempty"`
	YHist [][]float64 `json:"yhist,omitempty"`
}

// IntervalRecord is one interval's detailed outcome inside a perf_report:
// per-slice performance and post-interval queue lengths, the effective
// [slice][resource] allocation actually applied, and the raw action's
// capacity violation — everything the coordinator needs to rebuild the
// full History of a local run (SystemPerf, SlicePerf, Usage, Violations).
// Queues is read by no merge; ROADMAP item 12 drops it from the wire.
type IntervalRecord struct {
	Perf      []float64   `json:"perf"`
	Queues    []int       `json:"queues,omitempty"`
	Effective [][]float64 `json:"eff,omitempty"`
	Violation float64     `json:"viol,omitempty"`
}

// Codec selects the wire encoding of a connection.
type Codec uint8

// Wire codecs. JSON is the historical newline-delimited encoding; Binary
// is the length-prefixed packed encoding that DialAgent speaks.
const (
	CodecJSON Codec = iota
	CodecBinary
)

// String returns the codec's name.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// maxLineBytes bounds a single protocol frame (either codec) to keep a
// malicious or broken peer from exhausting memory. Perf reports carry
// per-interval records (T × slices × resources floats), so the bound is
// sized for long periods on wide slice mixes with room to spare.
const maxLineBytes = 4 << 20

// wireStats counts the traffic of one endpoint (a hub or an agent client),
// updated lock-free from reader/writer paths.
type wireStats struct {
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	framesIn  [numMsgKinds]atomic.Uint64
	framesOut [numMsgKinds]atomic.Uint64
}

// snapshotFrames flattens a per-kind counter array into a name→count map,
// omitting zero entries so /healthz payloads stay small.
func snapshotFrames(counters *[numMsgKinds]atomic.Uint64) map[string]uint64 {
	out := make(map[string]uint64, numMsgKinds)
	for k := 0; k < numMsgKinds; k++ {
		if n := counters[k].Load(); n > 0 {
			out[string(msgKindNames[k])] = n
		}
	}
	return out
}

// msgWriter encodes envelopes into a reusable buffer and writes each frame
// with a single Write call. It is not safe for concurrent use: callers
// serialize it behind the connection's write mutex.
type msgWriter struct {
	w     io.Writer
	codec Codec
	buf   bytes.Buffer // reused frame build-up (JSON via json.Encoder, binary via appendBinary)
	stats *wireStats   // optional
}

func newMsgWriter(w io.Writer, codec Codec, stats *wireStats) *msgWriter {
	return &msgWriter{w: w, codec: codec, stats: stats}
}

// write encodes e in the writer's codec and sends it as one frame.
func (mw *msgWriter) write(e Envelope) error {
	mw.buf.Reset()
	if mw.codec == CodecBinary {
		if err := appendBinary(&mw.buf, e); err != nil {
			return err
		}
	} else {
		// Encoder.Encode appends the terminating '\n' itself, completing
		// the line frame without the extra copy json.Marshal+append costs.
		if err := json.NewEncoder(&mw.buf).Encode(e); err != nil {
			return fmt.Errorf("rcnet: marshal: %w", err)
		}
	}
	n, err := mw.w.Write(mw.buf.Bytes())
	if mw.stats != nil {
		mw.stats.bytesOut.Add(uint64(n))
		if err == nil {
			mw.stats.framesOut[msgKindOf(e.Type)].Add(1)
		}
	}
	if err != nil {
		return fmt.Errorf("rcnet: write: %w", err)
	}
	return nil
}

// msgReader decodes frames of either codec from a buffered connection,
// reusing one scratch buffer across frames. Each frame self-describes:
// '{' opens a JSON line, binMagic opens a binary packet — so a reader
// needs no negotiated state and a hub can serve mixed fleets. lastCodec
// reports the codec of the most recent frame (the register frame's codec
// decides how the hub answers the connection), frameLen its byte length.
type msgReader struct {
	br        *bufio.Reader
	buf       []byte
	lastCodec Codec
	frameLen  int
	stats     *wireStats // optional
}

func newMsgReader(conn net.Conn, stats *wireStats) *msgReader {
	return &msgReader{br: bufio.NewReaderSize(conn, 64*1024), stats: stats}
}

// readInto decodes the next frame, JSON or binary, into e: a binary frame
// reuses e's slices (see readBinary), a JSON frame replaces them.
func (mr *msgReader) readInto(e *Envelope) error {
	first, err := mr.br.Peek(1)
	if err != nil {
		return err
	}
	if first[0] == binMagic {
		mr.lastCodec = CodecBinary
		return mr.readBinary(e)
	}
	mr.lastCodec = CodecJSON
	return mr.readJSON(e)
}

// readJSON reads one JSON line. The frame bound is enforced while reading —
// accumulation stops the moment maxLineBytes is exceeded — so a peer that
// streams an endless newline-free frame costs at most maxLineBytes of
// buffer, not unbounded memory.
func (mr *msgReader) readJSON(e *Envelope) error {
	line := mr.buf[:0]
	for {
		chunk, err := mr.br.ReadSlice('\n')
		if len(line)+len(chunk) > maxLineBytes {
			return fmt.Errorf("rcnet: frame too large (>%d bytes)", maxLineBytes)
		}
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return err
		}
	}
	mr.buf = line[:0] // keep the grown scratch for the next frame
	*e = Envelope{}
	if err := json.Unmarshal(line, e); err != nil {
		return fmt.Errorf("rcnet: malformed frame: %w", err)
	}
	mr.count(len(line), e.Type)
	return nil
}

func (mr *msgReader) count(n int, t MsgType) {
	mr.frameLen = n
	if mr.stats != nil {
		mr.stats.bytesIn.Add(uint64(n))
		mr.stats.framesIn[msgKindOf(t)].Add(1)
	}
}

// deadline applies a read/write deadline when timeout > 0.
func deadline(c net.Conn, timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(timeout)
}
