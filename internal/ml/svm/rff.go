package svm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"github.com/wsdetect/waldo/internal/ml"
)

// RFF is a random-Fourier-feature map approximating the RBF kernel
// exp(−γ‖a−b‖²) (Rahimi & Recht): z(x)_i = sqrt(2/D)·cos(wᵢ·x + bᵢ) with
// wᵢ ~ N(0, 2γI) and bᵢ ~ U[0, 2π]. A linear model on z(x) then behaves
// like a kernel machine at linear-model cost.
type RFF struct {
	w   []float64 // D rows of dim frequencies, row-major
	b   []float64
	dim int
}

// NewRFF draws a feature map for inputDim-dimensional inputs with D output
// features.
func NewRFF(inputDim, d int, gamma float64, seed int64) (*RFF, error) {
	if inputDim < 1 || d < 1 {
		return nil, fmt.Errorf("svm: rff dims must be positive (input=%d, D=%d)", inputDim, d)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("svm: rff gamma must be positive, got %v", gamma)
	}
	rng := rand.New(rand.NewSource(seed))
	std := math.Sqrt(2 * gamma)
	w := make([]float64, d*inputDim)
	b := make([]float64, d)
	for i := range b {
		row := w[i*inputDim : (i+1)*inputDim]
		for j := range row {
			row[j] = rng.NormFloat64() * std
		}
		b[i] = rng.Float64() * 2 * math.Pi
	}
	return &RFF{w: w, b: b, dim: inputDim}, nil
}

// OutputDim returns D.
func (r *RFF) OutputDim() int { return len(r.b) }

// Transform maps one vector into feature space.
func (r *RFF) Transform(x []float64) ([]float64, error) {
	out := make([]float64, len(r.b))
	if err := r.transformInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// transformInto writes z(x) into out, which must hold OutputDim values:
// the D phases wᵢ·x + bᵢ, then one pass of the cosine kernel over them.
func (r *RFF) transformInto(out, x []float64) error {
	if len(x) != r.dim {
		return fmt.Errorf("svm: rff input dim %d, want %d", len(x), r.dim)
	}
	out = out[:len(r.b)]
	w := r.w
	if len(x) == 4 {
		// The shipped feature set (location + RSS + CFT), the loop
		// below written out. Its sum starts from 0, which can only
		// turn a −0 phase into +0: the same cosine.
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		for i, phase := range r.b {
			row := w[4*i : 4*i+4 : 4*i+4]
			out[i] = row[0]*x0 + row[1]*x1 + row[2]*x2 + row[3]*x3 + phase
		}
	} else {
		for i, phase := range r.b {
			row := w[:len(x)]
			w = w[len(x):]
			var dot float64
			for j, xj := range x {
				dot += row[j] * xj
			}
			out[i] = dot + phase
		}
	}
	cosRow(out, math.Sqrt(2/float64(len(r.b))))
	return nil
}

// Params exposes the feature map for serialization.
func (r *RFF) Params() (w [][]float64, b []float64) {
	w = make([][]float64, len(r.b))
	for i := range w {
		w[i] = append([]float64(nil), r.w[i*r.dim:(i+1)*r.dim]...)
	}
	return w, append([]float64(nil), r.b...)
}

// NewRFFFromParams reconstructs a feature map from serialized parameters.
func NewRFFFromParams(w [][]float64, b []float64) (*RFF, error) {
	if len(w) == 0 || len(w) != len(b) {
		return nil, fmt.Errorf("svm: bad rff params (%d rows, %d phases)", len(w), len(b))
	}
	dim := len(w[0])
	if dim == 0 {
		return nil, fmt.Errorf("svm: zero-dimensional rff rows")
	}
	flat := make([]float64, 0, len(w)*dim)
	for i := range w {
		if len(w[i]) != dim {
			return nil, fmt.Errorf("svm: ragged rff row %d", i)
		}
		flat = append(flat, w[i]...)
	}
	// One non-finite weight or phase makes every feature it feeds NaN.
	for i, v := range flat {
		if !finite(v) {
			return nil, fmt.Errorf("svm: rff weight %d is %v", i, v)
		}
	}
	for i, v := range b {
		if !finite(v) {
			return nil, fmt.Errorf("svm: rff phase %d is %v", i, v)
		}
	}
	return &RFF{w: flat, b: append([]float64(nil), b...), dim: dim}, nil
}

// RFFSVM is the fast kernel SVM: random Fourier features feeding a Pegasos
// linear SVM. It is the default "SVM" of the Waldo evaluation harness.
type RFFSVM struct {
	// D is the number of random features; default 128.
	D int
	// Gamma is the approximated RBF width; default 0.5 (tuned for
	// z-scored inputs).
	Gamma float64
	// Linear configures the underlying Pegasos trainer.
	Linear Pegasos
	// Seed drives both the feature map and training shuffles.
	Seed int64

	rff *RFF
}

var _ ml.Classifier = (*RFFSVM)(nil)
var _ ml.DecisionScorer = (*RFFSVM)(nil)

func (m *RFFSVM) defaults() {
	if m.D == 0 {
		m.D = 128
	}
	if m.Gamma == 0 {
		m.Gamma = 0.5
	}
}

// designScratch is the storage of one fit's design matrix — n rows of D
// features, their slice headers, the n squared row norms — recycled
// through designPool: the shipped locality is 1 760 × 48, 676 KB every fit
// would otherwise allocate and zero, and a sync.Pool holds nothing a
// garbage collection cannot drop. A fit writes every element it goes on
// to read, so nothing is cleared.
type designScratch struct {
	vals []float64
	rows [][]float64
}

var designPool = sync.Pool{New: func() any { return new(designScratch) }}

// matrix returns n rows of d values and a vector of n more, of
// unspecified content.
func (s *designScratch) matrix(n, d int) (rows [][]float64, vec []float64) {
	s.vals = slices.Grow(s.vals[:0], n*d+n)[:n*d+n]
	s.rows = slices.Grow(s.rows[:0], n)[:n]
	for i := range s.rows {
		s.rows[i] = s.vals[i*d : (i+1)*d : (i+1)*d]
	}
	return s.rows, s.vals[n*d:]
}

// Fit implements ml.Classifier.
func (m *RFFSVM) Fit(x [][]float64, y []int) error {
	s := designPool.Get().(*designScratch)
	defer designPool.Put(s)
	return m.fit(s, x, y)
}

// fit is Fit on the given scratch: each row is mapped, checked and measured
// while in cache, all Pegasos.Fit's two passes over the matrix would do.
func (m *RFFSVM) fit(s *designScratch, x [][]float64, y []int) error {
	m.defaults()
	dim, err := ml.CheckTrainingSet(x, y)
	if err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	rff, err := NewRFF(dim, m.D, m.Gamma, m.Seed)
	if err != nil {
		return err
	}
	z, znorm2 := s.matrix(len(x), m.D)
	for i := range x {
		if err := rff.transformInto(z[i], x[i]); err != nil {
			return err
		}
		// An overflowed phase has a NaN cosine, and a NaN in the row is a
		// NaN norm; the cold path names it as a whole-matrix check would.
		if znorm2[i] = dot(z[i], z[i]); !finite(znorm2[i]) {
			if _, err := ml.CheckTrainingSet(z[:i+1], y[:i+1]); err != nil {
				return fmt.Errorf("svm: %w", err)
			}
		}
	}
	m.Linear.Seed = m.Seed + 1
	if err := m.Linear.fitChecked(z, y, znorm2); err != nil {
		return err
	}
	m.rff = rff
	return nil
}

// Model exposes the fitted feature map and hyperplane for serialization.
func (m *RFFSVM) Model() (rff *RFF, w []float64, bias float64, err error) {
	if m.rff == nil {
		return nil, nil, 0, fmt.Errorf("svm: model not fitted")
	}
	w, bias, err = m.Linear.Model()
	if err != nil {
		return nil, nil, 0, err
	}
	return m.rff, w, bias, nil
}

// SetModel installs a serialized feature map and hyperplane.
func (m *RFFSVM) SetModel(rff *RFF, w []float64, bias float64) error {
	if rff == nil {
		return fmt.Errorf("svm: nil rff map")
	}
	if rff.OutputDim() != len(w) {
		return fmt.Errorf("svm: rff D=%d but %d weights", rff.OutputDim(), len(w))
	}
	if err := m.Linear.SetModel(w, bias); err != nil {
		return err
	}
	m.defaults()
	m.rff = rff
	return nil
}

// DecisionValue implements ml.DecisionScorer.
func (m *RFFSVM) DecisionValue(x []float64) (float64, error) {
	if m.rff == nil {
		return 0, fmt.Errorf("svm: model not fitted")
	}
	// The shipped D = 48 fits the stack; a model is shared by concurrent
	// classifications, so there is no scratch to keep on it.
	var buf [64]float64
	var z []float64
	if d := m.rff.OutputDim(); d <= len(buf) {
		z = buf[:d]
	} else {
		z = make([]float64, d)
	}
	if err := m.rff.transformInto(z, x); err != nil {
		return 0, err
	}
	return m.Linear.DecisionValue(z)
}

// Predict implements ml.Classifier.
func (m *RFFSVM) Predict(x []float64) (int, error) {
	f, err := m.DecisionValue(x)
	if err != nil {
		return 0, err
	}
	if f >= 0 {
		return ml.Positive, nil
	}
	return ml.Negative, nil
}
