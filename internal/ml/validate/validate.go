// Package validate provides the evaluation harness of paper §4: k-fold
// cross-validation and the FP/FN/error metrics, with the paper's safety
// and efficiency semantics (positive class = channel vacant).
package validate

import (
	"fmt"
	"math/rand"

	"github.com/wsdetect/waldo/internal/ml"
)

// Metrics is a confusion-matrix summary. Positive = Safe (vacant).
type Metrics struct {
	// TP: predicted vacant, actually vacant.
	TP int
	// TN: predicted occupied, actually occupied.
	TN int
	// FP: predicted vacant while occupied — endangers incumbents
	// (safety; keep near zero).
	FP int
	// FN: predicted occupied while vacant — wasted white space
	// (efficiency; the metric to minimize).
	FN int
}

// Add accumulates o into m.
func (m *Metrics) Add(o Metrics) {
	m.TP += o.TP
	m.TN += o.TN
	m.FP += o.FP
	m.FN += o.FN
}

// Count records one (predicted, actual) pair.
func (m *Metrics) Count(predicted, actual int) {
	switch {
	case predicted == ml.Positive && actual == ml.Positive:
		m.TP++
	case predicted == ml.Positive && actual == ml.Negative:
		m.FP++
	case predicted == ml.Negative && actual == ml.Positive:
		m.FN++
	default:
		m.TN++
	}
}

// Total returns the number of counted samples.
func (m Metrics) Total() int { return m.TP + m.TN + m.FP + m.FN }

// FPRate is FP over actually-occupied samples (safety; paper §4.2).
func (m Metrics) FPRate() float64 {
	if m.FP+m.TN == 0 {
		return 0
	}
	return float64(m.FP) / float64(m.FP+m.TN)
}

// FNRate is FN over actually-vacant samples (efficiency; paper §4.2).
func (m Metrics) FNRate() float64 {
	if m.FN+m.TP == 0 {
		return 0
	}
	return float64(m.FN) / float64(m.FN+m.TP)
}

// ErrorRate is total misclassifications over all samples.
func (m Metrics) ErrorRate() float64 {
	if m.Total() == 0 {
		return 0
	}
	return float64(m.FP+m.FN) / float64(m.Total())
}

// String implements fmt.Stringer.
func (m Metrics) String() string {
	return fmt.Sprintf("err=%.4f fp=%.4f fn=%.4f (n=%d)", m.ErrorRate(), m.FPRate(), m.FNRate(), m.Total())
}

// KFold returns k disjoint test-index folds over n samples, shuffled with
// the given seed. Every sample appears in exactly one fold.
func KFold(n, k int, seed int64) ([][]int, error) {
	if k < 2 || n < k {
		return nil, fmt.Errorf("validate: cannot split %d samples into %d folds", n, k)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		f := i % k
		folds[f] = append(folds[f], idx)
	}
	return folds, nil
}

// Split is one held-out fold: Test is a KFold fold, Train the samples
// that fit the model scored on it.
type Split struct {
	Train, Test []int
}

// Splits is the one place a held-out evaluation decides which samples
// train: KFold's folds, each with its complement in ascending index
// order as the training set.
func Splits(n, k int, seed int64) ([]Split, error) {
	folds, err := KFold(n, k, seed)
	if err != nil {
		return nil, err
	}
	splits := make([]Split, len(folds))
	inTest := make([]bool, n)
	for f, test := range folds {
		clear(inTest)
		for _, i := range test {
			inTest[i] = true
		}
		train := make([]int, 0, n-len(test))
		for i, held := range inTest {
			if !held {
				train = append(train, i)
			}
		}
		splits[f] = Split{Train: train, Test: test}
	}
	return splits, nil
}

// Pick returns xs at idx, in idx's order.
func Pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// Factory constructs a fresh untrained classifier for each fold.
type Factory func() ml.Classifier

// CrossValidate runs k-fold cross-validation: for each fold it fits a
// fresh classifier (with a standardizer fitted only on that fold's
// training data) and accumulates test metrics. This is the 10-fold
// procedure of paper §4.1.
func CrossValidate(factory Factory, x [][]float64, y []int, k int, seed int64) (Metrics, error) {
	var total Metrics
	splits, err := Splits(len(x), k, seed)
	if err != nil {
		return total, err
	}
	for f, sp := range splits {
		m, err := TrainAndTest(factory(), Pick(x, sp.Train), Pick(y, sp.Train), Pick(x, sp.Test), Pick(y, sp.Test))
		if err != nil {
			return total, fmt.Errorf("validate: fold %d: %w", f, err)
		}
		total.Add(m)
	}
	return total, nil
}

// TrainAndTest standardizes on the training set, fits cls, and evaluates
// on the test set. Single-class training sets degrade to a constant
// predictor of the training class (the correct behaviour for all-occupied
// or all-vacant localities — the "binary" clusters of §3.2).
func TrainAndTest(cls ml.Classifier, trainX [][]float64, trainY []int, testX [][]float64, testY []int) (Metrics, error) {
	var m Metrics
	if len(trainX) == 0 {
		return m, fmt.Errorf("validate: empty training set")
	}
	if len(testX) != len(testY) {
		return m, fmt.Errorf("validate: %d test rows, %d labels", len(testX), len(testY))
	}

	constLabel, isConst := ConstantClass(trainY)
	if isConst {
		for i := range testX {
			m.Count(constLabel, testY[i])
		}
		return m, nil
	}

	std, err := ml.FitStandardizer(trainX)
	if err != nil {
		return m, err
	}
	zTrain, err := std.TransformAll(trainX)
	if err != nil {
		return m, err
	}
	if err := cls.Fit(zTrain, trainY); err != nil {
		return m, err
	}
	for i := range testX {
		z, err := std.Transform(testX[i])
		if err != nil {
			return m, err
		}
		pred, err := cls.Predict(z)
		if err != nil {
			return m, err
		}
		m.Count(pred, testY[i])
	}
	return m, nil
}

// ConstantClass returns the one class y holds and true, or false when y
// holds both classes or none: a training set of one class trains no
// classifier, its class is the prediction.
func ConstantClass(y []int) (int, bool) {
	if len(y) == 0 {
		return 0, false
	}
	first := y[0]
	for _, v := range y[1:] {
		if v != first {
			return 0, false
		}
	}
	return first, true
}
