package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if !almost(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almost(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Median != 3.5 || s.Mean != 3.5 || s.StdDev != 0 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("q50 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of empty slice should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{0.5, 1.5, 1.6, 9.9, -5, 15})
	if h.total != 6 {
		t.Fatalf("total = %d", h.total)
	}
	if h.Counts[0] != 2 { // 0.5 and clamped -5
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Errorf("bin1 = %d, want 2", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 15
		t.Errorf("bin9 = %d, want 2", h.Counts[9])
	}
	if !almost(h.BinCenter(0), 0.5, 1e-12) {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
	if !almost(h.Fraction(0), 2.0/6.0, 1e-12) {
		t.Errorf("Fraction(0) = %v", h.Fraction(0))
	}
	if h.Render(20) == "" {
		t.Error("Render returned empty string")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero bins")
		}
	}()
	NewHistogram(0, 1, 0)
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almost(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points returned %d", len(pts))
	}
	if pts[0][0] != 1 || pts[4][0] != 3 {
		t.Errorf("point range [%v,%v], want [1,3]", pts[0][0], pts[4][0])
	}
	if pts[4][1] != 1 {
		t.Errorf("final CDF value %v, want 1", pts[4][1])
	}
}

// Property: the CDF is monotone non-decreasing and bounded by [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		prev := -1.0
		for _, p := range c.Points(32) {
			if p[1] < prev || p[1] < 0 || p[1] > 1 {
				return false
			}
			prev = p[1]
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max] and histogram mass is preserved.
func TestSummaryBoundsProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Median < s.Min-1e-9 || s.Median > s.Max+1e-9 {
			return false
		}
		h := NewHistogram(-40000, 40000, 64)
		h.AddAll(xs)
		return h.total == len(xs)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
