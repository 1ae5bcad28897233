package svm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/ml"
)

// twoBlobs generates a linearly separable 2-D problem.
func twoBlobs(n int, gap float64, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x = append(x, []float64{gap + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, ml.Positive)
		} else {
			x = append(x, []float64{-gap + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, ml.Negative)
		}
	}
	return x, y
}

// rings generates a radially separable (non-linear) 2-D problem: inner
// disk positive, outer annulus negative.
func rings(n int, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var r float64
		var label int
		if i%2 == 0 {
			r = rng.Float64() * 0.8
			label = ml.Positive
		} else {
			r = 1.6 + rng.Float64()*0.8
			label = ml.Negative
		}
		ang := rng.Float64() * 2 * math.Pi
		x = append(x, []float64{r * math.Cos(ang), r * math.Sin(ang)})
		y = append(y, label)
	}
	return x, y
}

func accuracy(t *testing.T, cls ml.Classifier, x [][]float64, y []int) float64 {
	t.Helper()
	correct := 0
	for i := range x {
		pred, err := cls.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestSMOLinearSeparable(t *testing.T) {
	x, y := twoBlobs(200, 3, 1)
	s := &SMO{Kernel: Linear{}, Seed: 2}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, s, x, y); acc < 0.98 {
		t.Errorf("linear SMO accuracy = %v on separable blobs", acc)
	}
	if s.NumSupportVectors() == 0 || s.NumSupportVectors() == len(x) {
		t.Errorf("suspicious SV count %d of %d", s.NumSupportVectors(), len(x))
	}
}

func TestSMORBFNonlinear(t *testing.T) {
	x, y := rings(300, 3)
	s := &SMO{Kernel: RBF{Gamma: 1}, Seed: 4}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	testX, testY := rings(200, 5)
	if acc := accuracy(t, s, testX, testY); acc < 0.95 {
		t.Errorf("RBF SMO accuracy = %v on rings", acc)
	}
	// A linear SVM cannot solve rings: SMO-RBF must beat it clearly.
	lin := &Pegasos{Seed: 6}
	if err := lin.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if linAcc := accuracy(t, lin, testX, testY); linAcc > 0.8 {
		t.Errorf("linear accuracy %v on rings — problem is not non-linear enough", linAcc)
	}
}

func TestSMOValidation(t *testing.T) {
	s := &SMO{}
	if err := s.Fit(nil, nil); err == nil {
		t.Error("empty fit must fail")
	}
	if _, err := s.Predict([]float64{1, 2}); err == nil {
		t.Error("predict before fit must fail")
	}
	x, y := twoBlobs(50, 3, 7)
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict([]float64{1}); err == nil {
		t.Error("dim mismatch must fail")
	}
}

func TestSMOModelRoundTrip(t *testing.T) {
	x, y := rings(200, 8)
	s := &SMO{Kernel: RBF{Gamma: 1}, Seed: 9}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sv, coef, bias, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	clone := &SMO{Kernel: RBF{Gamma: 1}}
	if err := clone.SetModel(sv, coef, bias); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, _ := s.Predict(x[i])
		b, _ := clone.Predict(x[i])
		if a != b {
			t.Fatalf("clone disagrees at %d", i)
		}
	}
	if err := clone.SetModel(nil, nil, 0); err == nil {
		t.Error("empty model must be rejected")
	}
}

func TestPegasosSeparable(t *testing.T) {
	x, y := twoBlobs(400, 3, 10)
	p := &Pegasos{Seed: 11}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, p, x, y); acc < 0.97 {
		t.Errorf("pegasos accuracy = %v", acc)
	}
	w, bias, err := p.Model()
	if err != nil {
		t.Fatal(err)
	}
	clone := &Pegasos{}
	if err := clone.SetModel(w, bias); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, clone, x, y); acc < 0.97 {
		t.Errorf("clone accuracy = %v", acc)
	}
	if err := clone.SetModel([]float64{math.NaN()}, 0); err == nil {
		t.Error("NaN weights must be rejected")
	}
}

func TestPegasosClassBalance(t *testing.T) {
	// 95/5 imbalance with overlap: unbalanced hinge tends to starve the
	// minority class; balancing should recover minority recall.
	rng := rand.New(rand.NewSource(12))
	var x [][]float64
	var y []int
	for i := 0; i < 1000; i++ {
		if i%20 == 0 {
			x = append(x, []float64{1.2 + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, ml.Positive)
		} else {
			x = append(x, []float64{-0.6 + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, ml.Negative)
		}
	}
	recall := func(cls ml.Classifier) float64 {
		var tp, pos int
		for i := range x {
			if y[i] != ml.Positive {
				continue
			}
			pos++
			if pred, _ := cls.Predict(x[i]); pred == ml.Positive {
				tp++
			}
		}
		return float64(tp) / float64(pos)
	}
	plain := &Pegasos{Seed: 13}
	if err := plain.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	balanced := &Pegasos{Seed: 13, ClassBalance: true}
	if err := balanced.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if recall(balanced) <= recall(plain) {
		t.Errorf("balance should improve minority recall: %v vs %v", recall(balanced), recall(plain))
	}
}

func TestRFFApproximatesRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const gamma = 0.7
	rff, err := NewRFF(3, 2048, gamma, 15)
	if err != nil {
		t.Fatal(err)
	}
	kern := RBF{Gamma: gamma}
	var maxErr float64
	for trial := 0; trial < 50; trial++ {
		a := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		za, err := rff.Transform(a)
		if err != nil {
			t.Fatal(err)
		}
		zb, _ := rff.Transform(b)
		var dot float64
		for i := range za {
			dot += za[i] * zb[i]
		}
		if e := math.Abs(dot - kern.Eval(a, b)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.08 {
		t.Errorf("RFF kernel approximation error = %v, want < 0.08 at D=2048", maxErr)
	}
}

func TestRFFSVMNonlinear(t *testing.T) {
	x, y := rings(600, 16)
	m := &RFFSVM{D: 256, Gamma: 1, Seed: 17}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	testX, testY := rings(300, 18)
	if acc := accuracy(t, m, testX, testY); acc < 0.93 {
		t.Errorf("RFF-SVM accuracy = %v on rings", acc)
	}
}

func TestRFFValidation(t *testing.T) {
	if _, err := NewRFF(0, 10, 1, 0); err == nil {
		t.Error("zero input dim must fail")
	}
	if _, err := NewRFF(2, 0, 1, 0); err == nil {
		t.Error("zero D must fail")
	}
	if _, err := NewRFF(2, 10, -1, 0); err == nil {
		t.Error("negative gamma must fail")
	}
	m := &RFFSVM{}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("predict before fit must fail")
	}
}

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, -1}
	if got := (Linear{}).Eval(a, b); got != 1 {
		t.Errorf("linear = %v, want 1", got)
	}
	if got := (RBF{Gamma: 0.5}).Eval(a, a); got != 1 {
		t.Errorf("rbf self = %v, want 1", got)
	}
	if got := (RBF{Gamma: 0.5}).Eval(a, b); got >= 1 || got <= 0 {
		t.Errorf("rbf cross = %v, want in (0,1)", got)
	}
	if got := (Poly{Degree: 2, Coef: 1}).Eval(a, b); got != 4 {
		t.Errorf("poly = %v, want 4", got)
	}

	for _, tc := range []struct {
		name  string
		gamma float64
		deg   int
		ok    bool
	}{
		{"linear", 0, 0, true},
		{"rbf", 1, 0, true},
		{"rbf", 0, 0, false},
		{"poly", 0, 2, true},
		{"poly", 0, 0, false},
		{"nope", 0, 0, false},
	} {
		_, err := KernelByName(tc.name, tc.gamma, tc.deg, 1)
		if tc.ok && err != nil {
			t.Errorf("KernelByName(%s): %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("KernelByName(%s): expected error", tc.name)
		}
	}
}

// TestDesignScratchIsFullyOverwritten: a recycled design matrix is never
// cleared, so a fit must write every element it reads. Fits of different
// n and D share one scratch that is filled with NaN — values, row
// headers' targets and norms — between them; each must give the weights,
// by bits, of the same fit on fresh storage.
func TestDesignScratchIsFullyOverwritten(t *testing.T) {
	shared := new(designScratch)
	poison := func() {
		vals := shared.vals[:cap(shared.vals)]
		for i := range vals {
			vals[i] = math.NaN()
		}
		rows := shared.rows[:cap(shared.rows)]
		for i := range rows {
			rows[i] = vals[:0] // a stale header must not be trusted either
		}
	}
	for i, shape := range []struct{ n, d int }{{400, 48}, {150, 32}, {700, 64}, {150, 32}} {
		x, y := localitySet(shape.n, int64(i))
		fresh := &RFFSVM{D: shape.d, Gamma: 0.35, Seed: 5, Linear: Pegasos{ClassBalance: true, Epochs: 5}}
		reused := &RFFSVM{D: shape.d, Gamma: 0.35, Seed: 5, Linear: Pegasos{ClassBalance: true, Epochs: 5}}
		if err := fresh.fit(new(designScratch), x, y); err != nil {
			t.Fatal(err)
		}
		if err := reused.fit(shared, x, y); err != nil {
			t.Fatal(err)
		}
		poison()
		_, wantW, wantB, _ := fresh.Model()
		_, gotW, gotB, _ := reused.Model()
		if math.Float64bits(gotB) != math.Float64bits(wantB) {
			t.Fatalf("fit %d (%d×%d): bias %v on the reused scratch, %v on a fresh one", i, shape.n, shape.d, gotB, wantB)
		}
		for j := range wantW {
			if math.Float64bits(gotW[j]) != math.Float64bits(wantW[j]) {
				t.Fatalf("fit %d (%d×%d): w[%d] = %v on the reused scratch, %v on a fresh one", i, shape.n, shape.d, j, gotW[j], wantW[j])
			}
		}
	}
}

// TestRFFSVMFitChecksTheRowsItMakes: Fit no longer hands its design
// matrix to ml.CheckTrainingSet, so it must itself refuse a row whose
// phase overflowed (cos ±Inf is NaN) — with the error Pegasos.Fit gives
// for the same matrix.
func TestRFFSVMFitChecksTheRowsItMakes(t *testing.T) {
	x, y := localitySet(60, 3)
	x[41][2] = math.MaxFloat64 // finite, so the input passes; w·x is not
	m := &RFFSVM{D: 48, Gamma: 0.35, Seed: 5}
	err := m.Fit(x, y)
	if err == nil {
		t.Fatal("a design matrix with NaN features was fitted")
	}
	rff, _ := NewRFF(4, 48, 0.35, 5)
	z := make([][]float64, len(x))
	for i := range x {
		z[i], _ = rff.Transform(x[i])
	}
	want := (&Pegasos{}).Fit(z, y)
	if want == nil || err.Error() != want.Error() {
		t.Fatalf("Fit: %v; Pegasos.Fit on the same design matrix: %v", err, want)
	}
	if _, _, _, err := m.Model(); err == nil {
		t.Error("a failed fit left a model behind")
	}
}
