package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegularizedIncompleteBeta(t *testing.T) {
	tests := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform distribution).
		{1, 1, 0.3, 0.3},
		{1, 1, 0.9, 0.9},
		// I_x(1,b) = 1-(1-x)^b.
		{1, 2, 0.5, 0.75},
		{1, 3, 0.2, 1 - math.Pow(0.8, 3)},
		// I_x(a,1) = x^a.
		{2, 1, 0.5, 0.25},
		// Symmetric case: I_0.5(a,a) = 0.5.
		{3, 3, 0.5, 0.5},
		{7.5, 7.5, 0.5, 0.5},
	}
	for _, tt := range tests {
		if got := RegularizedIncompleteBeta(tt.a, tt.b, tt.x); !almostEq(got, tt.want, 1e-10) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", tt.x, tt.a, tt.b, got, tt.want)
		}
	}
	if RegularizedIncompleteBeta(2, 2, 0) != 0 || RegularizedIncompleteBeta(2, 2, 1) != 1 {
		t.Error("boundary values wrong")
	}
	if !math.IsNaN(RegularizedIncompleteBeta(-1, 2, 0.5)) {
		t.Error("negative parameter should yield NaN")
	}
}

func TestFDistCDFKnownValues(t *testing.T) {
	// Reference values from R: pf(x, d1, d2) = P(F ≤ x) = 1 − FDistSurvival.
	tests := []struct {
		x, d1, d2, want float64
	}{
		{1.0, 1, 1, 0.5},
		{4.0, 2, 10, 1 - 0.0526485}, // qf(0.947, 2, 10) ≈ 4
		{1.0, 5, 5, 0.5},
		{161.4476, 1, 1, 0.95},
	}
	for _, tt := range tests {
		if got := 1 - FDistSurvival(tt.x, tt.d1, tt.d2); !almostEq(got, tt.want, 2e-3) {
			t.Errorf("1 − FDistSurvival(%v,%v,%v) = %v, want %v", tt.x, tt.d1, tt.d2, got, tt.want)
		}
	}
	if FDistSurvival(-1, 2, 2) != 1 {
		t.Error("negative x should give survival 1")
	}
}

// TestFDistSurvivalComplement: the survival is the complement of the CDF
// I_{d1·x/(d1·x+d2)}(d1/2, d2/2).
func TestFDistSurvivalComplement(t *testing.T) {
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 20} {
		c := RegularizedIncompleteBeta(1.5, 20, 3*x/(3*x+40))
		s := FDistSurvival(x, 3, 40)
		if !almostEq(c+s, 1, 1e-10) {
			t.Errorf("CDF+survival at %v = %v", x, c+s)
		}
	}
}

func TestOneWayANOVASeparatedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = 5 + rng.NormFloat64() // clearly shifted
	}
	f, p := OneWayANOVA(a, b)
	if f < 100 {
		t.Errorf("F = %v, want large for separated groups", f)
	}
	if p > 1e-10 {
		t.Errorf("p = %v, want ~0 for separated groups", p)
	}
}

func TestOneWayANOVAIdenticalGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	f, p := OneWayANOVA(a, b)
	if f > 5 {
		t.Errorf("F = %v, unexpectedly large for iid groups", f)
	}
	if p < 0.01 {
		t.Errorf("p = %v, should not reject for iid groups (can flake only if the math is wrong: seed is fixed)", p)
	}
}

func TestOneWayANOVADegenerate(t *testing.T) {
	if f, _ := OneWayANOVA([]float64{1, 2, 3}); !math.IsNaN(f) {
		t.Error("single group should be NaN")
	}
	if f, _ := OneWayANOVA(nil, []float64{1, 2}); !math.IsNaN(f) {
		t.Error("one empty group leaves a single group: NaN")
	}
	// Zero within-group variance with distinct means: perfect separation.
	f, p := OneWayANOVA([]float64{1, 1}, []float64{2, 2})
	if !math.IsInf(f, 1) || p != 0 {
		t.Errorf("perfect separation: F=%v p=%v", f, p)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, math.NaN(), 5})
	if e.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (NaN dropped)", e.Len())
	}
	if got := e.At(3); !almostEq(got, 0.6, 1e-12) {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := e.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := e.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if q := e.Quantile(0.5); !almostEq(q, 3, 1e-12) {
		t.Errorf("median = %v, want 3", q)
	}
	if e.Min() != 1 || e.Max() != 5 {
		t.Error("extrema wrong")
	}
}

func TestECDFKolmogorovSmirnov(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	same1 := make([]float64, 500)
	same2 := make([]float64, 500)
	shift := make([]float64, 500)
	for i := range same1 {
		same1[i] = rng.NormFloat64()
		same2[i] = rng.NormFloat64()
		shift[i] = rng.NormFloat64() + 3
	}
	a, b, c := NewECDF(same1), NewECDF(same2), NewECDF(shift)
	ksSame := a.KolmogorovSmirnov(b)
	ksShift := a.KolmogorovSmirnov(c)
	if ksSame > 0.15 {
		t.Errorf("KS of identical distributions = %v, want small", ksSame)
	}
	if ksShift < 0.8 {
		t.Errorf("KS of shifted distributions = %v, want near 1", ksShift)
	}
	if d := a.KolmogorovSmirnov(a); d != 0 {
		t.Errorf("KS with self = %v, want 0", d)
	}
}
