package dsp

import "math"

// RegularizedIncompleteBeta computes I_x(a, b), the regularized incomplete
// beta function, via the Lentz continued-fraction expansion. It underpins
// the F-distribution survival function used for ANOVA p-values in
// feature selection.
// Returns NaN for invalid parameters.
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x) || a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Use the symmetry relation to keep the continued fraction convergent.
	if x > (a+1)/(a+b+2) {
		return 1 - RegularizedIncompleteBeta(b, a, 1-x)
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta-la-lb) / a

	// Lentz's algorithm for the continued fraction.
	const (
		eps     = 1e-14
		tiny    = 1e-30
		maxIter = 300
	)
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= maxIter; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x /
				((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -(a + float64(m)) * (a + b + float64(m)) * x /
				((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		cd := c * d
		f *= cd
		if math.Abs(1-cd) < eps {
			return front * (f - 1)
		}
	}
	return front * (f - 1) // ran out of iterations; best effort
}

// FDistSurvival returns P(F > x), the ANOVA p-value for an observed F
// statistic x with (d1, d2) degrees of freedom.
func FDistSurvival(x, d1, d2 float64) float64 {
	if x <= 0 {
		return 1
	}
	return RegularizedIncompleteBeta(d2/2, d1/2, d2/(d1*x+d2))
}

// OneWayANOVA computes the one-way analysis-of-variance F statistic and
// p-value for the given groups of observations. Groups with fewer than one
// observation are ignored; at least two non-empty groups and a total of
// more than #groups observations are required (otherwise F is NaN).
func OneWayANOVA(groups ...[]float64) (f, p float64) {
	var (
		k     int
		n     int
		total float64
	)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		k++
		n += len(g)
		for _, v := range g {
			total += v
		}
	}
	if k < 2 || n <= k {
		return math.NaN(), math.NaN()
	}
	grand := total / float64(n)

	var ssBetween, ssWithin float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		gm := Mean(g)
		d := gm - grand
		ssBetween += float64(len(g)) * d * d
		for _, v := range g {
			dv := v - gm
			ssWithin += dv * dv
		}
	}
	d1 := float64(k - 1)
	d2 := float64(n - k)
	if ssWithin == 0 {
		// Perfect separation: infinite F, p-value of zero.
		return math.Inf(1), 0
	}
	f = (ssBetween / d1) / (ssWithin / d2)
	return f, FDistSurvival(f, d1, d2)
}
