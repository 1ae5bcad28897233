// Package bayes implements the Gaussian Naive Bayes classifier, the second
// of the two Waldo-friendly model families the paper evaluates (§3.2):
// its descriptor is tiny (two moments per feature per class), which is why
// the paper measures a ~4 kB NB model download versus ~40 kB for SVM.
package bayes

import (
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/ml"
)

// varianceFloor prevents degenerate likelihoods on near-constant features.
const varianceFloor = 1e-6

// GaussianNB is a two-class naive Bayes classifier with per-feature normal
// likelihoods.
type GaussianNB struct {
	dim      int
	logPrior [2]float64   // [negative, positive]
	mean     [2][]float64 // per class, per feature
	variance [2][]float64
}

var _ ml.Classifier = (*GaussianNB)(nil)
var _ ml.DecisionScorer = (*GaussianNB)(nil)

func classIndex(y int) int {
	if y == ml.Positive {
		return 1
	}
	return 0
}

// Fit implements ml.Classifier.
func (g *GaussianNB) Fit(x [][]float64, y []int) error {
	dim, err := ml.CheckTrainingSet(x, y)
	if err != nil {
		return fmt.Errorf("bayes: %w", err)
	}
	var count [2]float64
	var mean, m2 [2][]float64
	for c := 0; c < 2; c++ {
		mean[c] = make([]float64, dim)
		m2[c] = make([]float64, dim)
	}
	// Welford accumulation per class.
	for i := range x {
		c := classIndex(y[i])
		count[c]++
		for j, v := range x[i] {
			delta := v - mean[c][j]
			mean[c][j] += delta / count[c]
			m2[c][j] += delta * (v - mean[c][j])
		}
	}
	n := count[0] + count[1]
	for c := 0; c < 2; c++ {
		g.logPrior[c] = math.Log(count[c] / n)
		g.mean[c] = mean[c]
		g.variance[c] = make([]float64, dim)
		for j := range m2[c] {
			v := m2[c][j] / count[c]
			if v < varianceFloor {
				v = varianceFloor
			}
			g.variance[c][j] = v
		}
	}
	g.dim = dim
	return nil
}

// logLikelihood returns log p(x | class c) + log prior(c).
func (g *GaussianNB) logLikelihood(c int, x []float64) float64 {
	ll := g.logPrior[c]
	for j, v := range x {
		d := v - g.mean[c][j]
		ll += -0.5*math.Log(2*math.Pi*g.variance[c][j]) - d*d/(2*g.variance[c][j])
	}
	return ll
}

// DecisionValue implements ml.DecisionScorer: the positive-minus-negative
// log posterior margin.
func (g *GaussianNB) DecisionValue(x []float64) (float64, error) {
	if g.dim == 0 {
		return 0, fmt.Errorf("bayes: model not fitted")
	}
	if len(x) != g.dim {
		return 0, fmt.Errorf("bayes: input dim %d, model dim %d", len(x), g.dim)
	}
	return g.logLikelihood(1, x) - g.logLikelihood(0, x), nil
}

// Predict implements ml.Classifier.
func (g *GaussianNB) Predict(x []float64) (int, error) {
	d, err := g.DecisionValue(x)
	if err != nil {
		return 0, err
	}
	if d >= 0 {
		return ml.Positive, nil
	}
	return ml.Negative, nil
}

// Model exposes the fitted parameters for serialization, ordered
// (negative class, positive class).
func (g *GaussianNB) Model() (logPrior [2]float64, mean, variance [2][]float64, err error) {
	if g.dim == 0 {
		err = fmt.Errorf("bayes: model not fitted")
		return
	}
	logPrior = g.logPrior
	for c := 0; c < 2; c++ {
		mean[c] = append([]float64(nil), g.mean[c]...)
		variance[c] = append([]float64(nil), g.variance[c]...)
	}
	return logPrior, mean, variance, nil
}

// SetModel installs serialized parameters.
func (g *GaussianNB) SetModel(logPrior [2]float64, mean, variance [2][]float64) error {
	dim := len(mean[0])
	if dim == 0 || len(mean[1]) != dim || len(variance[0]) != dim || len(variance[1]) != dim {
		return fmt.Errorf("bayes: inconsistent model dimensions")
	}
	for c := 0; c < 2; c++ {
		// Every term of the log likelihood must be finite, or so is no
		// decision value.
		if math.IsNaN(logPrior[c]) || math.IsInf(logPrior[c], 0) {
			return fmt.Errorf("bayes: class %d log prior %v", c, logPrior[c])
		}
		for j, v := range variance[c] {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 1) {
				return fmt.Errorf("bayes: class %d feature %d variance %v", c, j, v)
			}
			if m := mean[c][j]; math.IsNaN(m) || math.IsInf(m, 0) {
				return fmt.Errorf("bayes: class %d feature %d mean %v", c, j, m)
			}
		}
		g.mean[c] = append([]float64(nil), mean[c]...)
		g.variance[c] = append([]float64(nil), variance[c]...)
	}
	g.logPrior = logPrior
	g.dim = dim
	return nil
}
