package histogram

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBucketing(t *testing.T) {
	h, err := New(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1.9, 2, 5, 9.99, 10} {
		h.Add(v)
	}
	// Buckets: [0,2) [2,4) [4,6) [6,8) [8,10]; 10 lands in the last.
	want := []int{2, 1, 1, 0, 2}
	for i, c := range h.Buckets {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, c, want[i], h.Buckets)
		}
	}
	if h.Total != 6 {
		t.Errorf("Total = %d", h.Total)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h, _ := New(0, 1, 2)
	h.Add(-5)
	h.Add(99)
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("Under=%d Over=%d", h.Under, h.Over)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := New(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := New(5, 1, 3); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHistogramNeverDropsInRangeValues(t *testing.T) {
	f := func(vals []float64) bool {
		h, err := New(0, 1, 7)
		if err != nil {
			return false
		}
		inRange := 0
		for _, v := range vals {
			x := math.Abs(math.Mod(v, 2)) // some in [0,1], some outside
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			if x >= 0 && x <= 1 {
				inRange++
			}
		}
		sum := 0
		for _, c := range h.Buckets {
			sum += c
		}
		return sum == inRange
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRender(t *testing.T) {
	h, _ := New(0, 4, 2)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	h.Add(99)
	r := h.Render(10)
	if !strings.Contains(r, "##########") {
		t.Errorf("largest bucket should render a full bar:\n%s", r)
	}
	if !strings.Contains(r, "clipped right tail: 1") {
		t.Errorf("overflow not rendered:\n%s", r)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 1.5, 2, 9, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary: %+v", s)
	}
	if s.Mean != 22.7 {
		t.Errorf("mean = %g", s.Mean)
	}
	if s.Median != 2 {
		t.Errorf("median = %g", s.Median)
	}
	if s.WithinTwo != 0.6 { // 1, 1.5, 2
		t.Errorf("WithinTwo = %g", s.WithinTwo)
	}
	if s.WithinTen != 0.8 { // + 9
		t.Errorf("WithinTen = %g", s.WithinTen)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty summary: %+v", empty)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		sort.Float64s(vals)
		p25 := Percentile(vals, 0.25)
		p75 := Percentile(vals, 0.75)
		return Percentile(vals, 0) == vals[0] &&
			Percentile(vals, 1) == vals[len(vals)-1] &&
			p25 <= p75
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionBelowIsInclusive(t *testing.T) {
	vals := []float64{1, 2, 2, 3}
	if got := FractionBelow(vals, 2); got != 0.75 {
		t.Errorf("FractionBelow(2) = %g, want 0.75 (inclusive)", got)
	}
	if got := FractionBelow(vals, 0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %g", got)
	}
	if got := FractionBelow(vals, 10); got != 1 {
		t.Errorf("FractionBelow(10) = %g", got)
	}
}

func TestLowerHalf(t *testing.T) {
	got := LowerHalf([]float64{5, 1, 4, 2, 3})
	want := []float64{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("LowerHalf = %v, want %v", got, want)
	}
	if got := LowerHalf([]float64{2, 1}); len(got) != 1 || got[0] != 1 {
		t.Errorf("LowerHalf even = %v", got)
	}
}
