// Package histogram provides the equi-width histograms and distribution
// summaries used to reproduce the paper's Figure 4 (cost distributions of
// sampled plans) and the summary columns of Table 1.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is an equi-width histogram over [Min, Max]. Values outside
// the range are counted in Under/Over rather than silently dropped.
type Histogram struct {
	Min, Max float64
	Buckets  []int
	Under    int
	Over     int
	Total    int
}

// New returns a histogram with n buckets spanning [min, max].
func New(min, max float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("histogram: bucket count %d must be positive", n)
	}
	if !(max > min) {
		return nil, fmt.Errorf("histogram: invalid range [%g, %g]", min, max)
	}
	return &Histogram{Min: min, Max: max, Buckets: make([]int, n)}, nil
}

// Add counts one value.
func (h *Histogram) Add(v float64) {
	h.Total++
	switch {
	case v < h.Min:
		h.Under++
	case v > h.Max:
		h.Over++
	default:
		i := int(float64(len(h.Buckets)) * (v - h.Min) / (h.Max - h.Min))
		if i == len(h.Buckets) {
			i--
		}
		h.Buckets[i]++
	}
}

// BucketLow returns the lower edge of bucket i.
func (h *Histogram) BucketLow(i int) float64 {
	return h.Min + (h.Max-h.Min)*float64(i)/float64(len(h.Buckets))
}

// MaxCount returns the largest bucket count.
func (h *Histogram) MaxCount() int {
	max := 0
	for _, c := range h.Buckets {
		if c > max {
			max = c
		}
	}
	return max
}

// Render draws the histogram as ASCII bars (Figure 4's plots, in text):
// one line per bucket with its lower edge and frequency.
func (h *Histogram) Render(barWidth int) string {
	if barWidth <= 0 {
		barWidth = 50
	}
	maxCount := h.MaxCount()
	if maxCount == 0 {
		maxCount = 1
	}
	var sb strings.Builder
	for i, c := range h.Buckets {
		bar := strings.Repeat("#", int(math.Round(float64(barWidth)*float64(c)/float64(maxCount))))
		fmt.Fprintf(&sb, "%12.4g | %-*s %d\n", h.BucketLow(i), barWidth, bar, c)
	}
	if h.Over > 0 {
		fmt.Fprintf(&sb, "%12s | (clipped right tail: %d)\n", ">max", h.Over)
	}
	return sb.String()
}

// Summary holds the distribution statistics Table 1 reports per query.
type Summary struct {
	N         int
	Min, Max  float64
	Mean      float64
	Median    float64
	WithinTwo float64 // fraction of values <= 2
	WithinTen float64 // fraction of values <= 10
}

// Summarize computes summary statistics over values (not modified).
func Summarize(vals []float64) Summary {
	s := Summary{N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	s.Median = Percentile(sorted, 0.5)
	s.WithinTwo = FractionBelow(sorted, 2.0)
	s.WithinTen = FractionBelow(sorted, 10.0)
	return s
}

// Percentile returns the p-quantile (0 <= p <= 1) of sorted values by
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// FractionBelow returns the fraction of sorted values <= bound.
func FractionBelow(sorted []float64, bound float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, math.Nextafter(bound, math.Inf(1)))
	return float64(i) / float64(len(sorted))
}

// LowerHalf returns the values at or below the median — Figure 4 plots
// "the lower 50% sampled costs".
func LowerHalf(vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[:(len(sorted)+1)/2]
}
