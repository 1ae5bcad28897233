// Package ml implements the compact, from-scratch machine-learning stack
// Waldo's Model Constructor builds on (the paper uses OpenCV's ML library;
// this is its stdlib-only replacement): binary classifiers (SVM via SMO and
// Pegasos with random Fourier features, Gaussian Naive Bayes, KNN, CART),
// k-means clustering for localities identification, feature
// standardization, and the k-fold cross-validation harness with the
// FP/FN/error metrics of paper §4.2.
package ml

import (
	"fmt"
	"math"
)

// Binary class labels. Waldo's positive class is "safe for white-space
// operation" (channel vacant).
const (
	Positive = +1
	Negative = -1
)

// Classifier is a trainable binary classifier over dense feature vectors.
// Labels must be Positive or Negative.
type Classifier interface {
	// Fit trains on the given matrix. Implementations must not retain X
	// or y.
	Fit(x [][]float64, y []int) error
	// Predict classifies one vector.
	Predict(x []float64) (int, error)
}

// DecisionScorer is implemented by classifiers that expose a real-valued
// decision function (positive ⇒ Positive class), enabling threshold tuning.
type DecisionScorer interface {
	// DecisionValue returns the signed score for x.
	DecisionValue(x []float64) (float64, error)
}

// NewMatrix returns a zeroed n×dim matrix whose rows are consecutive,
// non-overlapping views of one row-major backing array: two allocations
// whatever n is, and neighbouring rows adjacent in memory. The trainer's
// matrices (locations, features, z-scores, random Fourier features) are
// all built this way.
func NewMatrix(n, dim int) [][]float64 {
	backing := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// CheckTrainingSet validates a design matrix and label vector.
func CheckTrainingSet(x [][]float64, y []int) (dim int, err error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("ml: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	dim = len(x[0])
	if dim == 0 {
		return 0, fmt.Errorf("ml: zero-dimensional features")
	}
	var pos, neg int
	for i := range x {
		if len(x[i]) != dim {
			return 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(x[i]), dim)
		}
		for j, v := range x[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("ml: row %d feature %d is %v", i, j, v)
			}
		}
		switch y[i] {
		case Positive:
			pos++
		case Negative:
			neg++
		default:
			return 0, fmt.Errorf("ml: label %d at row %d (want ±1)", y[i], i)
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("ml: single-class training set (%d positive, %d negative)", pos, neg)
	}
	return dim, nil
}

// Standardizer z-scores features using statistics fitted on training data.
// Location coordinates (km) and signal features (dB) live on very different
// scales; both SVM margins and RBF kernels need them commensurate.
type Standardizer struct {
	mean  []float64
	scale []float64
}

// FitStandardizer computes per-feature mean and standard deviation.
// Constant features get unit scale (they pass through centered).
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if len(x) == 0 || len(x[0]) == 0 {
		return nil, fmt.Errorf("ml: cannot standardize an empty matrix")
	}
	dim := len(x[0])
	mean := make([]float64, dim)
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("ml: ragged matrix at row %d", i)
		}
		for j, v := range x[i] {
			mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range mean {
		mean[j] /= n
	}
	scale := make([]float64, dim)
	for i := range x {
		for j, v := range x[i] {
			d := v - mean[j]
			scale[j] += d * d
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / n)
		if scale[j] < 1e-9 {
			scale[j] = 1
		}
	}
	return &Standardizer{mean: mean, scale: scale}, nil
}

// Dim returns the feature dimensionality.
func (s *Standardizer) Dim() int { return len(s.mean) }

// Params returns copies of the fitted means and scales (for serialization).
func (s *Standardizer) Params() (mean, scale []float64) {
	return append([]float64(nil), s.mean...), append([]float64(nil), s.scale...)
}

// NewStandardizerFromParams reconstructs a standardizer from serialized
// parameters.
func NewStandardizerFromParams(mean, scale []float64) (*Standardizer, error) {
	if len(mean) == 0 || len(mean) != len(scale) {
		return nil, fmt.Errorf("ml: bad standardizer params (%d means, %d scales)", len(mean), len(scale))
	}
	// A non-finite mean makes every z-score it feeds ±Inf or NaN; an
	// infinite scale zeroes its feature out of every decision.
	for i, sc := range scale {
		if sc <= 0 || math.IsNaN(sc) || math.IsInf(sc, 1) {
			return nil, fmt.Errorf("ml: scale %v at %d is not positive and finite", sc, i)
		}
		if m := mean[i]; math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("ml: mean %v at %d is not finite", m, i)
		}
	}
	return &Standardizer{
		mean:  append([]float64(nil), mean...),
		scale: append([]float64(nil), scale...),
	}, nil
}

// Transform z-scores one vector into a new slice.
func (s *Standardizer) Transform(x []float64) ([]float64, error) {
	out := make([]float64, len(s.mean))
	if err := s.TransformInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformInto z-scores x into out, which must hold Dim values, and
// allocates nothing.
func (s *Standardizer) TransformInto(out, x []float64) error {
	if len(x) != len(s.mean) || len(out) < len(x) {
		return fmt.Errorf("ml: transform dim %d into %d, fitted %d", len(x), len(out), len(s.mean))
	}
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.scale[j]
	}
	return nil
}

// TransformAll z-scores a matrix into a new matrix (see NewMatrix).
func (s *Standardizer) TransformAll(x [][]float64) ([][]float64, error) {
	out := NewMatrix(len(x), len(s.mean))
	for i := range x {
		if err := s.TransformInto(out[i], x[i]); err != nil {
			return nil, fmt.Errorf("ml: row %d: %w", i, err)
		}
	}
	return out, nil
}
