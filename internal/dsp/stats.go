package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN if len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs (NaNs for an empty slice).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted. Returns NaN
// for empty input or p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	var ws Workspace
	return ws.Percentile(xs, p)
}

// percentileSorted is Percentile over already-sorted, non-empty input.
func percentileSorted(sorted []float64, p float64) float64 {
	if p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// FiveNumber is the boxplot summary of a sample: minimum, lower quartile,
// median, upper quartile, maximum (paper Figs. 10–11 report these per
// feature per occupancy class).
type FiveNumber struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize returns the five-number summary of xs.
func Summarize(xs []float64) FiveNumber {
	if len(xs) == 0 {
		nan := math.NaN()
		return FiveNumber{nan, nan, nan, nan, nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return FiveNumber{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
	}
}

// IQR returns the interquartile range Q3−Q1.
func (f FiveNumber) IQR() float64 { return f.Q3 - f.Q1 }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// Returns NaN if the lengths differ, fewer than two samples are given, or
// either series is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MovingAverage returns the trailing moving average of xs with the given
// window (window ≥ 1). Element i averages xs[max(0,i-window+1) .. i], so the
// output has the same length as the input and warms up from the first value.
func MovingAverage(xs []float64, window int) []float64 {
	var ws Workspace
	return ws.MovingAverage(xs, window)
}

// TrimOutliers returns the elements of xs within the [loPct, hiPct]
// percentile band, preserving order. This is the detector's 5th–95th
// percentile outlier rejection step (paper §3.3).
func TrimOutliers(xs []float64, loPct, hiPct float64) []float64 {
	var ws Workspace
	return ws.TrimOutliers(xs, loPct, hiPct)
}

// Workspace is reusable storage for Percentile, MovingAverage and
// TrimOutliers, for callers that run them per capture (the White Space
// Detector re-trims its stream on every reading). The zero value is
// ready. A returned slice aliases the workspace and is valid until the
// next call of the same method; the package-level functions are these
// methods on a fresh workspace.
type Workspace struct {
	sorted, kept, smoothed []float64
}

// empty returns buf emptied, with room for n values: exactly n from a
// fresh workspace, doubling when a reused one has to grow.
func empty(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, 0, max(n, 2*cap(buf)))
	}
	return buf[:0]
}

// sort returns xs sorted, in the workspace's storage.
func (ws *Workspace) sort(xs []float64) []float64 {
	ws.sorted = append(empty(ws.sorted, len(xs)), xs...)
	sort.Float64s(ws.sorted)
	return ws.sorted
}

// Percentile is the package-level Percentile.
func (ws *Workspace) Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return percentileSorted(ws.sort(xs), p)
}

// MovingAverage is the package-level MovingAverage.
func (ws *Workspace) MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := empty(ws.smoothed, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
			out = append(out, sum/float64(window))
		} else {
			out = append(out, sum/float64(i+1))
		}
	}
	ws.smoothed = out
	return out
}

// TrimOutliers is the package-level TrimOutliers; both percentiles come
// from one sort.
func (ws *Workspace) TrimOutliers(xs []float64, loPct, hiPct float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	sorted := ws.sort(xs)
	lo := percentileSorted(sorted, loPct)
	hi := percentileSorted(sorted, hiPct)
	out := empty(ws.kept, len(xs))
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	ws.kept = out
	return out
}
