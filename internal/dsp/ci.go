package dsp

import "math"

// ConfidenceInterval is a two-sided interval around a sample mean.
type ConfidenceInterval struct {
	Mean float64
	Lo   float64
	Hi   float64
}

// Span returns the width Hi−Lo of the interval. The White Space Detector
// declares a reading stream converged once the span of the 90 % confidence
// interval falls below the sensitivity parameter α (paper §3.3).
func (ci ConfidenceInterval) Span() float64 { return ci.Hi - ci.Lo }

// MeanCI returns the two-sided confidence interval for the mean of xs at
// the given confidence level (e.g. 0.90), using the normal approximation
// with the sample standard deviation. For n < 2 the interval is unbounded.
func MeanCI(xs []float64, level float64) ConfidenceInterval {
	m := Mean(xs)
	if len(xs) < 2 {
		return ConfidenceInterval{Mean: m, Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	z := NormalQuantile(0.5 + level/2)
	half := z * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return ConfidenceInterval{Mean: m, Lo: m - half, Hi: m + half}
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// using the Acklam rational approximation (relative error < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}

	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}

	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
