package dsp

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function over a sample.
// Several of the paper's figures (5, 7, 14c, 17, 18) are CDF plots; ECDF is
// the series type the experiment harness renders them from.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (which it copies and sorts).
// NaN values are dropped.
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, 0, len(sample))
	for _, v := range sample {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns F(x) = P(X ≤ x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of the sample.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	return percentileSorted(e.sorted, p*100)
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 { return Mean(e.sorted) }

// Min and Max return the sample extrema.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest sample value.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// RenderQuantiles formats a compact quantile table (p10/p25/p50/p75/p90)
// with the given value unit, used in experiment reports.
func (e *ECDF) RenderQuantiles(unit string) string {
	var b strings.Builder
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		fmt.Fprintf(&b, "p%02.0f=%.3f%s ", p*100, e.Quantile(p), unit)
	}
	return strings.TrimSpace(b.String())
}

// KolmogorovSmirnov returns the two-sample KS statistic between e and o:
// the maximum absolute difference between the two empirical CDFs. The
// sensor-sensitivity experiment uses it to quantify how distinguishable two
// input power levels are from a sensor's reading distributions (Fig. 5).
func (e *ECDF) KolmogorovSmirnov(o *ECDF) float64 {
	if e.Len() == 0 || o.Len() == 0 {
		return math.NaN()
	}
	var maxDiff float64
	for _, x := range e.sorted {
		if d := math.Abs(e.At(x) - o.At(x)); d > maxDiff {
			maxDiff = d
		}
	}
	for _, x := range o.sorted {
		if d := math.Abs(e.At(x) - o.At(x)); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}
