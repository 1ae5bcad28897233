package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) || !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Error("invalid percentile inputs should yield NaN")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{7, 15, 36, 39, 40, 41}
	s := Summarize(xs)
	if s.Min != 7 || s.Max != 41 {
		t.Errorf("extrema: %+v", s)
	}
	if !almostEq(s.Median, 37.5, 1e-9) {
		t.Errorf("median = %v, want 37.5", s.Median)
	}
	if s.Q1 > s.Median || s.Median > s.Q3 {
		t.Errorf("quartiles out of order: %+v", s)
	}
	if s.Q3 <= s.Q1 {
		t.Errorf("Q3 %v not above Q1 %v", s.Q3, s.Q1)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v, want -1", r)
	}
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant series should yield NaN")
	}
	if !math.IsNaN(Pearson(xs, xs[:3])) {
		t.Error("length mismatch should yield NaN")
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MovingAverage = %v, want %v", got, want)
		}
	}
	// Window 1 is the identity.
	id := MovingAverage(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Fatal("window 1 should be identity")
		}
	}
	// Degenerate window is clamped.
	if out := MovingAverage(xs, 0); out[0] != 1 {
		t.Error("window 0 should be clamped to 1")
	}
}

func TestTrimOutliers(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	trimmed := TrimOutliers(xs, 5, 95)
	lo, hi := slices.Min(trimmed), slices.Max(trimmed)
	if lo < Percentile(xs, 5) || hi > Percentile(xs, 95) {
		t.Errorf("trim bounds violated: [%v, %v]", lo, hi)
	}
	if len(trimmed) < 85 || len(trimmed) > 95 {
		t.Errorf("trimmed length = %d, want ~91", len(trimmed))
	}
	if TrimOutliers(nil, 5, 95) != nil {
		t.Error("empty input should return nil")
	}
}

func TestMeanCI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	ci := MeanCI(xs, 0.90)
	if ci.Lo >= ci.Hi {
		t.Fatalf("degenerate interval %+v", ci)
	}
	if ci.Mean < 9.8 || ci.Mean > 10.2 {
		t.Errorf("mean = %v, want ~10", ci.Mean)
	}
	// 90% CI for n=1000, σ=1: half-width ≈ 1.645/sqrt(1000) ≈ 0.052.
	if !almostEq(ci.Span(), 2*1.645/math.Sqrt(1000), 0.02) {
		t.Errorf("span = %v, want ~%v", ci.Span(), 2*1.645/math.Sqrt(1000))
	}
	// More samples tighten the interval.
	half := MeanCI(xs[:100], 0.90)
	if half.Span() <= ci.Span() {
		t.Error("CI should shrink with more samples")
	}
	single := MeanCI(xs[:1], 0.90)
	if !math.IsInf(single.Span(), 1) {
		t.Error("single-sample CI should be unbounded")
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.95, 1.6449},
		{0.975, 1.9600},
		{0.05, -1.6449},
		{0.001, -3.0902},
	}
	for _, tt := range tests {
		if got := NormalQuantile(tt.p); !almostEq(got, tt.want, 1e-3) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("boundary quantiles should be infinite")
	}
}

func TestNormalQuantileCDFInverse(t *testing.T) {
	for p := 0.01; p < 1; p += 0.01 {
		if got := 0.5 * math.Erfc(-NormalQuantile(p)/math.Sqrt2); !almostEq(got, p, 1e-6) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

// TestWorkspaceReuseMatchesFresh: a workspace carried across calls of
// growing and shrinking lengths returns what the package-level functions
// (a fresh workspace each) return, bit for bit, and nothing once warm.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var ws Workspace
	same := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, fresh %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, fresh %v", name, i, got[i], want[i])
			}
		}
	}
	for _, n := range []int{1, 2, 9, 64, 8, 3, 200, 10, 0} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = -80 + 3*rng.NormFloat64()
		}
		if n > 4 {
			xs[1], xs[3] = math.Inf(-1), xs[2] // a dead capture, a duplicate
		}
		smoothed := ws.MovingAverage(xs, 8)
		same("MovingAverage", smoothed, MovingAverage(xs, 8))
		same("TrimOutliers", ws.TrimOutliers(xs, 5, 95), TrimOutliers(xs, 5, 95))
		same("TrimOutliers(smoothed)", ws.TrimOutliers(smoothed, 5, 95), TrimOutliers(smoothed, 5, 95))
		for _, p := range []float64{0, 5, 50, 95, 100, -1, 101, math.NaN()} {
			same("Percentile", []float64{ws.Percentile(xs, p)}, []float64{Percentile(xs, p)})
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(50, func() {
		ws.TrimOutliers(ws.MovingAverage(xs, 8), 5, 95)
		ws.Percentile(xs, 95)
	}); n != 0 {
		t.Errorf("warm workspace allocs = %v, want 0", n)
	}
}
