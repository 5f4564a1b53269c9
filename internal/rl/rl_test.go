package rl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func newRNG() *rand.Rand { return rand.New(rand.NewSource(3)) } //nolint:gosec // test

func TestReplayBufferEviction(t *testing.T) {
	b := NewReplayBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	rng := newRNG()
	samples, err := b.Sample(rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Reward < 2 {
			t.Fatalf("sampled evicted transition with reward %v", s.Reward)
		}
	}
}

func TestReplayBufferEmptySample(t *testing.T) {
	b := NewReplayBuffer(4)
	if _, err := b.Sample(newRNG(), 1); err == nil {
		t.Error("sampling empty buffer should fail")
	}
}

func TestReplayBufferRejectsNonPositiveSample(t *testing.T) {
	b := NewReplayBuffer(4)
	b.Add(Transition{Reward: 1})
	if _, err := b.Sample(newRNG(), 0); err == nil {
		t.Error("n = 0 should fail")
	}
	if _, err := b.Sample(newRNG(), -3); err == nil {
		t.Error("negative n should fail")
	}
	if err := b.SampleInto(newRNG(), nil); err == nil {
		t.Error("empty destination should fail")
	}
}

// Eviction is FIFO: with capacity c, the buffer always holds exactly the
// last c added transitions.
func TestReplayBufferFIFOEvictionOrder(t *testing.T) {
	const capacity = 4
	b := NewReplayBuffer(capacity)
	for i := 0; i < 11; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	got := map[float64]bool{}
	for _, tr := range b.buf {
		got[tr.Reward] = true
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

// The ring grows by append, so this pins what must not depend on how it is
// stored: against a plain FIFO model, the storage order, the eviction
// cursor and the seeded sample sequence agree after every Add across the
// first wrap, and a buffer restored from a snapshot taken before or after
// the wrap continues exactly like the original.
func TestReplayBufferWrapSequence(t *testing.T) {
	const capacity, adds = 5, 13
	rewards := func(trs []Transition) []float64 {
		out := make([]float64, len(trs))
		for i, tr := range trs {
			out[i] = tr.Reward
		}
		return out
	}
	for _, snapAt := range []int{3, capacity, 8} { // before, at and after the first wrap
		live := NewReplayBuffer(capacity)
		var restored *ReplayBuffer
		var model []Transition                                                         // model[i] is storage slot i
		seeded := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i))) } //nolint:gosec // test
		for i := 0; i < adds; i++ {
			tr := Transition{Reward: float64(i), State: []float64{float64(i)}}
			live.Add(tr)
			if restored != nil {
				restored.Add(tr)
			}
			if len(model) < capacity {
				model = append(model, tr)
			} else {
				model[i%capacity] = tr // FIFO: slot of the oldest
			}
			if i+1 == snapAt {
				var err error
				if restored, err = RestoreReplay(live.State()); err != nil {
					t.Fatal(err)
				}
			}

			st := live.State()
			if want := rewards(model); !reflect.DeepEqual(rewards(st.Transitions), want) {
				t.Fatalf("snap %d, add %d: storage order %v, want %v", snapAt, i, rewards(st.Transitions), want)
			}
			wantNext := 0
			if i >= capacity {
				wantNext = (i + 1) % capacity
			}
			if st.Next != wantNext || st.Capacity != capacity {
				t.Fatalf("snap %d, add %d: cursor %d capacity %d, want %d and %d", snapAt, i, st.Next, st.Capacity, wantNext, capacity)
			}
			got, err := live.Sample(seeded(i), 7)
			if err != nil {
				t.Fatal(err)
			}
			want, modelRNG := make([]Transition, 7), seeded(i)
			for k := range want {
				want[k] = model[modelRNG.Intn(len(model))]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("snap %d, add %d: samples %v, want %v", snapAt, i, rewards(got), rewards(want))
			}
			if restored == nil {
				continue
			}
			if !reflect.DeepEqual(restored.State(), st) {
				t.Fatalf("snap %d, add %d: restored state %+v, live %+v", snapAt, i, restored.State(), st)
			}
			again, err := restored.Sample(seeded(i), 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("snap %d, add %d: restored samples %v, live %v", snapAt, i, rewards(again), rewards(got))
			}
		}
	}
}

// A short run must not pay for the whole ring: storage follows what was
// stored, and never passes capacity once it wraps.
func TestReplayBufferGrowsOnDemand(t *testing.T) {
	b := NewReplayBuffer(100_000)
	for i := 0; i < 100; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	if c := cap(b.buf); c >= 1000 {
		t.Errorf("100 transitions hold storage for %d, want it near 100", c)
	}
	r, err := RestoreReplay(b.State())
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(r.buf); c >= 1000 {
		t.Errorf("restored 100 transitions hold storage for %d, want it near 100", c)
	}
}

func TestReplayBufferSampleInto(t *testing.T) {
	b := NewReplayBuffer(8)
	for i := 0; i < 8; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	batch := make([]Transition, 5)
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
		b := NewReplayBuffer(capacity)
		for i := 0; i < adds; i++ {
			b.Add(Transition{})
		}
		want := adds
		if want > capacity {
			want = capacity
		}
		return b.Len() == want && b.Capacity() == capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianNoiseDecay(t *testing.T) {
	n := NewGaussianNoise()
	rng := newRNG()
	start := n.Std
	for i := 0; i < 1000; i++ {
		n.Sample(rng, 2)
	}
	if n.Std >= start {
		t.Errorf("noise std did not decay: %v -> %v", start, n.Std)
	}
	for i := 0; i < 200000; i++ {
		n.Sample(rng, 1)
	}
	if n.Std != n.Min {
		t.Errorf("noise std %v should have floored at %v", n.Std, n.Min)
	}
}

func TestOUNoiseMeanReversion(t *testing.T) {
	o := NewOUNoise(1)
	rng := newRNG()
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += o.Sample(rng, 1)[0]
	}
	if math.Abs(sum/n) > 0.1 {
		t.Errorf("OU long-run mean %v should be near 0", sum/n)
	}
	o.Reset()
	if o.state[0] != 0 {
		t.Error("Reset should zero the state")
	}
}

func TestDiscountedReturns(t *testing.T) {
	r := []float64{1, 1, 1}
	got := DiscountedReturns(r, 0.5, 0)
	want := []float64{1.75, 1.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("G[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Terminal bootstrap propagates.
	got = DiscountedReturns([]float64{0}, 0.9, 10)
	if math.Abs(got[0]-9) > 1e-12 {
		t.Errorf("bootstrapped return = %v, want 9", got[0])
	}
}

func TestGAEReducesToTDWhenLambdaZero(t *testing.T) {
	rewards := []float64{1, 2, 3}
	values := []float64{0.5, 1.0, 1.5, 2.0}
	adv := GAE(rewards, values, 0.9, 0)
	for i := range rewards {
		td := rewards[i] + 0.9*values[i+1] - values[i]
		if math.Abs(adv[i]-td) > 1e-12 {
			t.Errorf("adv[%d] = %v, want TD %v", i, adv[i], td)
		}
	}
}

func TestGAEEqualsReturnsMinusValueWhenLambdaOne(t *testing.T) {
	rewards := []float64{1, -2, 0.5, 3}
	values := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	gamma := 0.95
	adv := GAE(rewards, values, gamma, 1)
	returns := DiscountedReturns(rewards, gamma, values[len(values)-1])
	for i := range rewards {
		want := returns[i] - values[i]
		if math.Abs(adv[i]-want) > 1e-9 {
			t.Errorf("adv[%d] = %v, want %v", i, adv[i], want)
		}
	}
}

func TestGAEPanicsOnBadLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GAE with mismatched lengths should panic")
		}
	}()
	GAE([]float64{1}, []float64{1}, 0.9, 0.9)
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	Normalize(xs)
	var mean, varsum float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	if math.Abs(mean) > 1e-9 || math.Abs(varsum/float64(len(xs))-1) > 1e-9 {
		t.Errorf("Normalize: mean %v var %v", mean, varsum/float64(len(xs)))
	}
	// Degenerate cases must not produce NaNs.
	same := []float64{2, 2, 2}
	Normalize(same)
	for _, x := range same {
		if math.IsNaN(x) {
			t.Error("Normalize produced NaN on constant input")
		}
	}
	single := []float64{7}
	Normalize(single)
	if single[0] != 7 {
		t.Error("Normalize of single sample should be a no-op")
	}
}

// The score gradient accumulated by AccumulateScoreGrad must match the
// finite-difference gradient of L = -Σ coef·logπ.
func TestScoreGradFiniteDifference(t *testing.T) {
	rng := newRNG()
	p := NewGaussianPolicy(rng, 2, 2, 8, 0.5)
	states := [][]float64{{0.3, -0.7}, {0.9, 0.2}}
	actions := [][]float64{{0.4, 0.6}, {0.1, 0.9}}
	coef := []float64{1.5, -0.8}

	loss := func() float64 {
		var l float64
		for i := range states {
			l -= coef[i] * p.LogProb(states[i], actions[i])
		}
		return l
	}

	p.ZeroGrad()
	p.AccumulateScoreGrad(states, actions, coef)

	const h = 1e-6
	// Check a sample of mean-network weights.
	layer := p.Mean.Layers[0]
	for k := 0; k < len(layer.W.Data); k += 5 {
		orig := layer.W.Data[k]
		layer.W.Data[k] = orig + h
		lp := loss()
		layer.W.Data[k] = orig - h
		lm := loss()
		layer.W.Data[k] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-layer.GradW.Data[k]) > 1e-4 {
			t.Fatalf("W[%d]: analytic %v numeric %v", k, layer.GradW.Data[k], numeric)
		}
	}
	// Check log-std gradients.
	for d := range p.LogStd {
		orig := p.LogStd[d]
		p.LogStd[d] = orig + h
		lp := loss()
		p.LogStd[d] = orig - h
		lm := loss()
		p.LogStd[d] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-p.LogStdGrad[d]) > 1e-4 {
			t.Fatalf("logstd[%d]: analytic %v numeric %v", d, p.LogStdGrad[d], numeric)
		}
	}
}

func TestPolicyFlattenRoundTrip(t *testing.T) {
	rng := newRNG()
	p := NewGaussianPolicy(rng, 3, 2, 8, 0.4)
	flat := p.FlattenParams()
	for i := range flat {
		flat[i] *= 1.1
	}
	if err := p.SetFlatParams(flat); err != nil {
		t.Fatal(err)
	}
	got := p.FlattenParams()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("param %d mismatch", i)
		}
	}
	if err := p.SetFlatParams(flat[:3]); err == nil {
		t.Error("short flat vector should fail")
	}
}

func TestKLZeroAgainstSelf(t *testing.T) {
	rng := newRNG()
	p := NewGaussianPolicy(rng, 2, 2, 8, 0.5)
	states := [][]float64{{0.1, 0.2}, {0.5, -0.5}}
	means := make([][]float64, len(states))
	for i, s := range states {
		means[i] = p.MeanAction(s)
	}
	kl := p.KLMeanDiff(states, means, p.LogStd)
	if math.Abs(kl) > 1e-9 {
		t.Errorf("KL against self = %v, want 0", kl)
	}
}

func TestSampleWithinBounds(t *testing.T) {
	rng := newRNG()
	p := NewGaussianPolicy(rng, 2, 3, 8, 1.0)
	for i := 0; i < 500; i++ {
		a := p.Sample(rng, []float64{rng.Float64(), rng.Float64()})
		for _, v := range a {
			if v < 0 || v > 1 {
				t.Fatalf("sampled action %v out of [0,1]", v)
			}
		}
	}
}
