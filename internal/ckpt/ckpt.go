// Package ckpt implements the versioned, full-fidelity checkpoint format
// for trained orchestration agents: for every agent the actor, critic(s),
// target networks, optimizer moments, and the state of its random
// generator (plus, behind a flag, the replay buffer), so that a restored
// agent acts bitwise identically to the original and can resume training
// exactly where the snapshot left off. The generator is a PCG, so its state
// is 20 bytes at any training length and restoring it is O(1). A
// content-addressed on-disk store keys checkpoints by (algorithm, hashed
// compiled system config, seed, train steps, format version) so a trained
// policy is computed once and reused everywhere (the paper trains its D-DRL
// agents once and deploys them across resource autonomies, Sec. V).
//
// A file is a one-line JSON header (the Checkpoint, listing each agent's
// tensors by role and length), a newline, the tensors as little-endian
// float64 in header order, and an IEEE CRC-32. Decode copies no tensor; Net,
// RestoreAdam and ReplayState.Rows copy the role asked for.
//
// The package defines the wire format and the per-agent state container;
// the trainer packages (offpolicy for ddpg and sac, onpolicy for ppo, trpo
// and vpg) implement Snapshot/Restore on top of it and register their
// restore and deploy functions here, so decoding dispatches by algorithm
// name without this package importing any of them.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
)

// Format identifies the full-fidelity checkpoint this package reads and
// writes; Validate rejects any other format by name. Version 4 holds the
// tensors as one binary payload where version 3 spelled them out in JSON.
const Format = "edgeslice-checkpoint-" + formatVersion

// formatVersion ends Format and every store key (see Key).
const formatVersion = "v4"

// SnapshotOptions configures what an agent snapshot captures.
type SnapshotOptions struct {
	// IncludeReplay captures the replay buffer contents (off-policy
	// algorithms only). Required for exact training resume; excluded by
	// default because replay dominates checkpoint size and deployment
	// (Act) needs none of it.
	IncludeReplay bool
}

// AgentState is the full serialized state of one trained agent. The five
// algorithms populate the generic containers as they need: Nets holds every
// network by role ("actor", "critic", "actor-target", "q1", "value", ...),
// Opts the Adam moments under the same role names, LogStd the Gaussian
// policy's free deviation parameters, Replay the optional buffer. Each
// holds a copy (EncodeRoles, EncodeReplay) or a view of a decoded file;
// Net and RestoreAdam decode one role, afresh, when asked for it.
type AgentState struct {
	// Algo names the training algorithm ("ddpg", "sac", "ppo", "trpo",
	// "vpg") and selects the restore function.
	Algo      string `json:"algo"`
	StateDim  int    `json:"state_dim"`
	ActionDim int    `json:"action_dim"`

	// Config is the algorithm package's own Config struct, round-tripped
	// verbatim so hyper-parameters (and restored schedules) survive.
	Config json.RawMessage `json:"config"`

	Nets map[string]*Tensor `json:"nets"`
	Opts map[string]*Tensor `json:"opts,omitempty"`

	// RNG is the trainer's generator state, as rand.PCG's MarshalBinary
	// writes it.
	RNG []byte `json:"rng"`

	// NoiseStd is the current exploration-noise standard deviation for
	// algorithms with a decaying noise schedule (ddpg).
	NoiseStd float64 `json:"noise_std,omitempty"`
	// LogStd holds the Gaussian policy's log standard deviations for the
	// on-policy algorithms (ppo, trpo, vpg).
	LogStd []float64 `json:"log_std,omitempty"`

	Replay *ReplayState `json:"replay,omitempty"`
}

// values is Len float64s, whose little-endian bytes are data.
type values struct {
	Len  int `json:"len"`
	data []byte
}

func appendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeInto fills dst with the values from index *off on, advancing *off.
func (v *values) decodeInto(dst []float64, off *int) {
	b := v.data[8*(*off) : 8*(*off+len(dst))]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*off += len(dst)
}

// Tensor is a role of Nets or Opts: a network's input width, layers and
// parameters in Params order (per layer, weights Out×In row-major, then
// biases), or an optimizer's step count T, first moments, then second.
type Tensor struct {
	In     int     `json:"in,omitempty"`
	Layers []Layer `json:"layers,omitempty"`
	T      int     `json:"t,omitempty"`
	values
}

// Layer is one dense layer's shape in a network's Tensor.
type Layer struct {
	Out int    `json:"out"`
	Act string `json:"act"`
}

// ReplayState is an off-policy trainer's replay ring: capacity, eviction
// cursor and transitions in storage order (state, action, reward, next
// state, done 0 or 1), so a restored buffer samples and evicts as before.
type ReplayState struct {
	Capacity int `json:"capacity"`
	Next     int `json:"next"`
	values
}

// ErrMissingNet reports a network role a restore or deploy needs.
var ErrMissingNet = errors.New("ckpt: snapshot missing network")

// EncodeRoles encodes each network and Adam state under its role name, the
// form AgentState.Nets and Opts hold: a point-in-time copy. A nil Adam
// state, an optimizer that has not stepped, is left out.
func EncodeRoles(nets map[string]*nn.Network, moments map[string]*nn.AdamState) (n, o map[string]*Tensor) {
	n, o = make(map[string]*Tensor, len(nets)), make(map[string]*Tensor, len(moments))
	for role, net := range nets {
		s := &Tensor{In: net.InputDim()}
		for _, l := range net.Layers {
			s.Layers = append(s.Layers, Layer{Out: l.Out, Act: l.Act.String()})
			s.data = appendFloats(appendFloats(s.data, l.W.Data...), l.B...)
		}
		s.Len = len(s.data) / 8
		n[role] = s
	}
	for role, m := range moments {
		if m != nil {
			b := appendFloats(appendFloats(nil, slices.Concat(m.M...)...), slices.Concat(m.V...)...)
			o[role] = &Tensor{T: m.T, values: values{Len: len(b) / 8, data: b}}
		}
	}
	return n, o
}

// EncodeReplay encodes a replay ring of rows in storage order, each laid
// out as ReplayState's transitions: a point-in-time copy.
func EncodeReplay(capacity, next int, rows []float64) *ReplayState {
	return &ReplayState{Capacity: capacity, Next: next, values: values{Len: len(rows), data: appendFloats(nil, rows...)}}
}

// Rows decodes the transitions, of stateDim-wide states and actionDim-wide
// actions, into one new array of rows as EncodeReplay takes them.
func (r *ReplayState) Rows(stateDim, actionDim int) ([]float64, error) {
	w := 2*stateDim + actionDim + 2
	if r.Len%w != 0 || len(r.data) != 8*r.Len {
		return nil, fmt.Errorf("ckpt: replay of %d values is no whole number of %d-value transitions", r.Len, w)
	}
	rows, off := make([]float64, r.Len), 0
	r.decodeInto(rows, &off)
	for i := w - 1; i < len(rows); i += w {
		if done := rows[i]; done != 0 && done != 1 {
			return nil, fmt.Errorf("ckpt: replay transition %d has done flag %v", i/w, done)
		}
	}
	return rows, nil
}

// Net decodes the named network into a new one.
func (st *AgentState) Net(role string) (*nn.Network, error) {
	s := st.Nets[role]
	if s == nil {
		return nil, fmt.Errorf("%w %q (%s)", ErrMissingNet, role, st.Algo)
	}
	specs := make([]nn.LayerSpec, len(s.Layers))
	in, need := s.In, 0
	for i, l := range s.Layers {
		act, err := nn.ParseActivation(l.Act)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s network %q layer %d: %w", st.Algo, role, i, err)
		}
		// need + Out·(in+1) ≤ Len, checked without overflow.
		if in <= 0 || l.Out <= 0 || in >= s.Len || l.Out > (s.Len-need)/(in+1) {
			return nil, fmt.Errorf("ckpt: %s network %q layer %d of %dx%d does not fit its %d values", st.Algo, role, i, l.Out, in, s.Len)
		}
		need += l.Out * (in + 1)
		specs[i], in = nn.LayerSpec{Out: l.Out, Act: act}, l.Out
	}
	if len(specs) == 0 || need != s.Len || len(s.data) != 8*need {
		return nil, fmt.Errorf("ckpt: %s network %q has %d layers for %d values", st.Algo, role, len(specs), s.Len)
	}
	n, off := nn.NewMLP(nil, s.In, specs...), 0
	for _, p := range n.Params() {
		s.decodeInto(p.Value, &off)
	}
	return n, nil
}

// NetDims decodes the named network and checks that it maps in inputs to
// out outputs.
func (st *AgentState) NetDims(role string, in, out int) (*nn.Network, error) {
	n, err := st.Net(role)
	if err != nil {
		return nil, err
	}
	if n.InputDim() != in || n.OutputDim() != out {
		return nil, fmt.Errorf("ckpt: %s %s network is %dx%d, want %dx%d",
			st.Algo, role, n.InputDim(), n.OutputDim(), in, out)
	}
	return n, nil
}

// NetLike decodes the named network and checks that it has like's layer
// shapes: a target network and the online network it tracks.
func (st *AgentState) NetLike(role string, like *nn.Network) (*nn.Network, error) {
	n, err := st.Net(role)
	if err != nil {
		return nil, err
	}
	if err := nn.SameShape(n, like); err != nil {
		return nil, fmt.Errorf("ckpt: %s %s network: %w", st.Algo, role, err)
	}
	return n, nil
}

// RestoreAdam decodes the named role's Adam moments into opt for n; a role
// with none leaves n's moments fresh, as before the optimizer's first step.
func (st *AgentState) RestoreAdam(opt *nn.Adam, n *nn.Network, role string) error {
	var s *nn.AdamState
	if m := st.Opts[role]; m != nil {
		params := n.Params()
		if m.Len != 2*n.NumParams() || len(m.data) != 8*m.Len {
			return fmt.Errorf("ckpt: %s optimizer %q holds %d values, want %d", st.Algo, role, m.Len, 2*n.NumParams())
		}
		s = &nn.AdamState{T: m.T, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
		off := 0
		for _, mv := range [][][]float64{s.M, s.V} {
			for i, p := range params {
				mv[i] = make([]float64, len(p.Value))
				m.decodeInto(mv[i], &off)
			}
		}
	}
	if err := opt.SetStateFor(n, s); err != nil {
		return fmt.Errorf("ckpt: %s optimizer %q: %w", st.Algo, role, err)
	}
	return nil
}

// Checkpoint is the header of the file: one trained system — either a
// single shared agent or one agent per resource autonomy — plus the
// provenance key fields the store addresses it by.
type Checkpoint struct {
	Format string `json:"format"`
	// Algorithm is the orchestration algorithm display name ("EdgeSlice",
	// "EdgeSlice-NT").
	Algorithm string `json:"algorithm"`
	// Shared marks a single agent deployed to every RA.
	Shared bool          `json:"shared"`
	Agents []*AgentState `json:"agents"`

	// Provenance: the store key fields (informational in the file itself).
	ConfigHash string `json:"config_hash,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	TrainSteps int    `json:"train_steps,omitempty"`
}

// Validate checks structural integrity.
func (c *Checkpoint) Validate() error {
	if c.Format != Format {
		return fmt.Errorf("ckpt: format %q, want %q", c.Format, Format)
	}
	if len(c.Agents) == 0 {
		return fmt.Errorf("ckpt: checkpoint has no agents")
	}
	if c.Shared && len(c.Agents) != 1 {
		return fmt.Errorf("ckpt: shared checkpoint has %d agents, want 1", len(c.Agents))
	}
	for i, st := range c.Agents {
		if st == nil {
			return fmt.Errorf("ckpt: agent %d is nil", i)
		}
		if st.Algo == "" {
			return fmt.Errorf("ckpt: agent %d names no algorithm", i)
		}
		if st.StateDim <= 0 || st.ActionDim <= 0 {
			return fmt.Errorf("ckpt: agent %d has invalid dims %dx%d", i, st.StateDim, st.ActionDim)
		}
	}
	return nil
}

// tensors lists c's tensors in payload order; a null role holds none.
func (c *Checkpoint) tensors() []*values {
	vs := make([]*values, 0, 8*len(c.Agents))
	for _, st := range c.Agents {
		for _, m := range []map[string]*Tensor{st.Nets, st.Opts} {
			roles := make([]string, 0, len(m))
			for role := range m {
				roles = append(roles, role)
			}
			slices.Sort(roles)
			for _, role := range roles {
				if t := m[role]; t != nil {
					vs = append(vs, &t.values)
				}
			}
		}
		if st.Replay != nil {
			vs = append(vs, &st.Replay.values)
		}
	}
	return vs
}

// Write serializes a checkpoint: header, newline, payload, CRC-32.
func Write(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	b = append(b, '\n')
	for _, v := range c.tensors() {
		b = append(b, v.data...)
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))); err != nil {
		return fmt.Errorf("ckpt: write: %w", err)
	}
	return nil
}

// Read parses and validates a checkpoint.
func Read(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	return Decode(data)
}

// Decode parses and validates checkpoint bytes (see Read). It accepts only
// what Write writes, so writing the result gives data back byte for byte,
// and the tensors it returns are views of data: the caller must not change
// data while the checkpoint is in use. It allocates no tensor.
func Decode(data []byte) (*Checkpoint, error) {
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		end = len(data)
	}
	c, vs, err := decodeHeader(data[:end], len(data)-end-1)
	if err != nil {
		return nil, err
	}
	body := data[:len(data)-4]
	rest := body[end+1:]
	for _, v := range vs {
		v.data, rest = rest[:8*v.Len:8*v.Len], rest[8*v.Len:]
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("ckpt: checksum mismatch")
	}
	return c, nil
}

// decodeHeader parses and validates the header line of a file whose payload
// (tensors and CRC) is payload bytes long, checking each declared tensor
// length against it, and returns the checkpoint and its tensors in order.
func decodeHeader(line []byte, payload int) (*Checkpoint, []*values, error) {
	var c Checkpoint
	if err := json.Unmarshal(line, &c); err != nil {
		// A field of the wrong type leaves the others decoded, so a file of
		// another format (v2's RNG was an object) is named by Validate.
		if c.Format == "" || c.Format == Format {
			return nil, nil, fmt.Errorf("ckpt: decode header: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	if canon, err := json.Marshal(&c); err != nil || !bytes.Equal(canon, line) || payload < 4 {
		return nil, nil, errors.New("ckpt: header is not as Write writes it, or no payload follows it")
	}
	rest, vs := payload-4, c.tensors()
	for _, v := range vs {
		if v.Len < 0 || v.Len > rest/8 {
			return nil, nil, fmt.Errorf("ckpt: tensor of %d values, %d payload bytes left", v.Len, rest)
		}
		rest -= 8 * v.Len
	}
	if rest != 0 {
		return nil, nil, fmt.Errorf("ckpt: %d payload bytes past the last tensor", rest)
	}
	return &c, vs, nil
}

// readChunk is the size of ReadActing's buffer.
const readChunk = 4096

// ReadActing reads a checkpoint of size bytes from r with Read's checks,
// the CRC over the whole file included, but keeps only each agent's acting
// network (see Deploy): every other tensor streams through the checksum in
// fixed-size reads and is left without values, so what it returns deploys
// and nothing else.
func ReadActing(r io.Reader, size int) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, readChunk)
	line, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	c, vs, err := decodeHeader(bytes.TrimSuffix(line, []byte{'\n'}), size-len(line))
	if err != nil {
		return nil, err
	}
	for _, st := range c.Agents {
		a, err := lookup(st.Algo)
		if err != nil {
			return nil, err
		}
		if t := st.Nets[a.role]; t != nil {
			t.data = make([]byte, 8*t.Len)
		}
	}
	crc, b := crc32.ChecksumIEEE(line), []byte(nil)
	for _, v := range vs {
		for n := 8 * v.Len; n > 0 && err == nil; n -= len(b) {
			b, err = br.Peek(min(n, readChunk))
			crc = crc32.Update(crc, crc32.IEEETable, b)
			if v.data != nil {
				copy(v.data[len(v.data)-n:], b)
			}
			_, _ = br.Discard(len(b))
		}
	}
	var sum [4]byte
	if err == nil {
		_, err = io.ReadFull(br, sum[:])
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	if crc != binary.LittleEndian.Uint32(sum[:]) {
		return nil, errors.New("ckpt: checksum mismatch")
	}
	return c, nil
}

// Snapshotter is implemented by trainable agents that can serialize their
// full training state.
type Snapshotter interface {
	Snapshot(SnapshotOptions) (*AgentState, error)
}

// RestoreFunc rebuilds a trainable agent from fresh decodes of its
// snapshot's roles, so one snapshot restores into many independent agents.
type RestoreFunc func(*AgentState) (rl.Agent, error)

// algorithm is a registered algorithm: its restore function and the role
// of the network it acts with, a [mean, log-std] head of twice the action
// width when squash is set.
type algorithm struct {
	restore RestoreFunc
	role    string
	squash  bool
}

// registry is written only from package init (Register).
var registry = map[string]algorithm{}

// Register installs an algorithm's restore function and acting role (see
// algorithm). The algorithm packages call it from init, mirroring
// image-format registration: importing one makes its checkpoints loadable.
func Register(algo string, restore RestoreFunc, role string, squash bool) {
	if _, dup := registry[algo]; dup {
		panic(fmt.Sprintf("ckpt: duplicate registration for %q", algo))
	}
	registry[algo] = algorithm{restore: restore, role: role, squash: squash}
}

func lookup(algo string) (algorithm, error) {
	a, ok := registry[algo]
	if !ok {
		return a, fmt.Errorf("ckpt: no restore registered for algorithm %q (is its package imported?)", algo)
	}
	return a, nil
}

// RestoreAgent rebuilds one trainable agent from its snapshot, dispatching
// on the algorithm name.
func RestoreAgent(st *AgentState) (rl.Agent, error) {
	a, err := lookup(st.Algo)
	if err != nil {
		return nil, err
	}
	return a.restore(st)
}

// Deploy builds one agent's acting policy from its snapshot's registered
// acting network alone, the actor (DDPG, SAC) or the Gaussian policy's mean
// network (PPO, TRPO, VPG): it acts bit-identically to RestoreAgent's agent.
func Deploy(st *AgentState) (*rl.DeployedPolicy, error) {
	a, err := lookup(st.Algo)
	if err != nil {
		return nil, err
	}
	out := st.ActionDim
	if a.squash {
		out *= 2
	}
	n, err := st.NetDims(a.role, st.StateDim, out)
	if err != nil {
		return nil, err
	}
	return rl.NewDeployedPolicy(n, a.squash), nil
}
