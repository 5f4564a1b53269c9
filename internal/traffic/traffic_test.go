package traffic

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func newRNG() *rand.Rand { return rand.New(rand.NewSource(17)) } //nolint:gosec // test

func TestConstantSource(t *testing.T) {
	s := ConstantSource{Lambda: 10}
	for _, i := range []int{0, 5, 1000} {
		if s.Rate(i) != 10 {
			t.Errorf("Rate(%d) = %v, want 10", i, s.Rate(i))
		}
	}
}

func TestProfileWraps(t *testing.T) {
	p := Profile{Rates: []float64{1, 2, 3}}
	if p.Rate(0) != 1 || p.Rate(4) != 2 || p.Rate(5) != 3 {
		t.Error("profile should wrap cyclically")
	}
	if p.Rate(-1) != 3 {
		t.Errorf("negative interval should wrap, got %v", p.Rate(-1))
	}
	scaled := Profile{Rates: []float64{2}, Scale: 5}
	if scaled.Rate(7) != 10 {
		t.Errorf("scaled rate = %v, want 10", scaled.Rate(7))
	}
	empty := Profile{}
	if empty.Rate(3) != 0 {
		t.Error("empty profile should produce 0")
	}
}

func TestSynthesizeTrentoLike(t *testing.T) {
	tr, err := SynthesizeTrentoLike(newRNG(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumAreas() != 10 || tr.Hours != 24 {
		t.Fatalf("areas=%d hours=%d", tr.NumAreas(), tr.Hours)
	}
	for area, p := range tr.Areas {
		if len(p) != 24 {
			t.Fatalf("area %d profile length %d", area, len(p))
		}
		var sum float64
		for _, v := range p {
			if v <= 0 {
				t.Fatalf("area %d has non-positive rate %v", area, v)
			}
			sum += v
		}
		if math.Abs(sum/24-1) > 1e-9 {
			t.Errorf("area %d daily mean %v, want 1", area, sum/24)
		}
		// Diurnal shape: the night trough (02:00-04:00) must be below the
		// daily mean, the evening peak region above it.
		night := (p[2] + p[3] + p[4]) / 3
		evening := (p[19] + p[20] + p[21]) / 3
		if night >= evening {
			t.Errorf("area %d: night %v should be below evening %v", area, night, evening)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := SynthesizeTrentoLike(newRNG(), 0); err == nil {
		t.Error("zero areas should fail")
	}
}

func TestAreaProfile(t *testing.T) {
	tr, _ := SynthesizeTrentoLike(newRNG(), 3)
	p, err := tr.AreaProfile(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scale != 7 || len(p.Rates) != 24 {
		t.Errorf("profile scale=%v len=%d", p.Scale, len(p.Rates))
	}
	if _, err := tr.AreaProfile(99, 1); err == nil {
		t.Error("unknown area should fail")
	}
}

// TestCSVRoundTrip reads WriteCSV's output back as plain CSV: a header,
// then one (area, hour, volume) row per profile value, volumes exact.
func TestCSVRoundTrip(t *testing.T) {
	tr, _ := SynthesizeTrentoLike(newRNG(), 4)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + tr.NumAreas()*tr.Hours; len(rows) != want || strings.Join(rows[0], ",") != "area,hour,volume" {
		t.Fatalf("got %d rows headed %v, want %d headed area,hour,volume", len(rows), rows[0], want)
	}
	for _, rec := range rows[1:] {
		area, _ := strconv.Atoi(rec[0])
		h, _ := strconv.Atoi(rec[1])
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil || v != tr.Areas[area][h] {
			t.Fatalf("row %v: want volume %v", rec, tr.Areas[area][h])
		}
	}
}

// Property: for any synthesized size, WriteCSV emits a header and one
// parseable (area, hour, volume) row per profile value.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 1
		tr, err := SynthesizeTrentoLike(rand.New(rand.NewSource(seed)), n) //nolint:gosec // test
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil || len(rows) != 1+n*24 {
			return false
		}
		for _, rec := range rows[1:] {
			area, errA := strconv.Atoi(rec[0])
			h, errH := strconv.Atoi(rec[1])
			v, errV := strconv.ParseFloat(rec[2], 64)
			if errA != nil || errH != nil || errV != nil || v != tr.Areas[area][h] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVariableSourceProperties(t *testing.T) {
	v := VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 5}
	// Deterministic: same interval, same rate.
	if v.Rate(7) != v.Rate(7) {
		t.Error("VariableSource should be deterministic")
	}
	// Constant within a block, and in range.
	for i := 0; i < 200; i++ {
		r := v.Rate(i)
		if r < 6 || r > 14 {
			t.Fatalf("rate %v out of [6, 14]", r)
		}
		if i%10 != 0 && v.Rate(i) != v.Rate(i-1) {
			t.Fatalf("rate changed mid-block at %d", i)
		}
	}
	// Varies across blocks.
	if v.Rate(0) == v.Rate(10) && v.Rate(10) == v.Rate(20) {
		t.Error("rates should vary across blocks")
	}
	// Degenerate configs fall back to Lo.
	if (VariableSource{Lo: 3, Hi: 2, BlockLen: 5}).Rate(0) != 3 {
		t.Error("inverted range should return Lo")
	}
	if (VariableSource{Lo: 3, Hi: 9, BlockLen: 0}).Rate(0) != 3 {
		t.Error("zero block should return Lo")
	}
	// Long-run mean approaches the midpoint of [Lo, Hi].
	var sum float64
	const blocks = 2000
	for b := 0; b < blocks; b++ {
		sum += v.Rate(b * 10)
	}
	mean := sum / blocks
	if mean < 9.5 || mean > 10.5 {
		t.Errorf("long-run mean %v, want ~10", mean)
	}
}
