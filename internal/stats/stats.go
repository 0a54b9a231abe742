// Package stats provides the small statistical toolkit the experiment
// harnesses use: summary statistics, histograms and empirical CDFs matching
// the presentation style of the paper's Table 2 and Figure 9.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the three statistics the paper reports per scenario.
type Summary struct {
	N      int
	Median float64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics over xs. It returns a zero Summary
// for an empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width binned histogram over [Lo, Hi). Samples outside
// the range are clamped into the first or last bin so mass is never lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: non-positive bin count")
	}
	if hi <= lo {
		panic("stats: empty histogram range")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinCenter reports the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction reports the fraction of samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Render draws a textual histogram with the given bar width, in the style
// used by the figure-reproduction harnesses.
func (h *Histogram) Render(width int) string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%8.3f | %-*s %6.2f%%\n",
			h.BinCenter(i), width, strings.Repeat("#", bar), 100*h.Fraction(i))
	}
	return b.String()
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds the empirical CDF of xs.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{xs: sorted}
}

// At reports P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.xs, x)
	// Move past equal values so At is right-continuous.
	for i < len(c.xs) && c.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(c.xs))
}

// Points returns n evenly spaced (x, P(X≤x)) pairs spanning the sample range,
// suitable for plotting the CDF curves of Figure 9.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.xs) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.xs[0], c.xs[len(c.xs)-1]
	pts := make([][2]float64, n)
	for i := range pts {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		pts[i] = [2]float64{x, c.At(x)}
	}
	return pts
}
