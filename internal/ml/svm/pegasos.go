package svm

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/wsdetect/waldo/internal/ml"
)

// Pegasos is a linear SVM trained by the Pegasos stochastic sub-gradient
// method (Shalev-Shwartz et al.). Training is O(epochs·n·dim), which makes
// it the workhorse for full-campaign cross-validation sweeps.
type Pegasos struct {
	// Lambda is the regularization strength; default 1e-4.
	Lambda float64
	// Epochs is the number of passes over the data; default 30.
	Epochs int
	// Seed drives example shuffling.
	Seed int64
	// ClassBalance reweights the minority class's sub-gradients so
	// imbalanced channels don't collapse to the majority label.
	ClassBalance bool

	w    []float64
	bias float64
}

var _ ml.Classifier = (*Pegasos)(nil)
var _ ml.DecisionScorer = (*Pegasos)(nil)

func (p *Pegasos) defaults() {
	if p.Lambda == 0 {
		p.Lambda = 1e-4
	}
	if p.Epochs == 0 {
		p.Epochs = 30
	}
}

// Fit implements ml.Classifier.
func (p *Pegasos) Fit(x [][]float64, y []int) error {
	p.defaults()
	dim, err := ml.CheckTrainingSet(x, y)
	if err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	if p.Lambda <= 0 || p.Epochs < 1 {
		return fmt.Errorf("svm: invalid hyperparameters lambda=%v epochs=%d", p.Lambda, p.Epochs)
	}
	n := len(x)

	// Inverse-frequency class weights normalized to mean 1.
	wPos, wNeg := 1.0, 1.0
	if p.ClassBalance {
		var pos int
		for _, yi := range y {
			if yi == ml.Positive {
				pos++
			}
		}
		neg := n - pos
		wPos = float64(n) / (2 * float64(pos))
		wNeg = float64(n) / (2 * float64(neg))
	}

	// One pass over w per sample. The pass that applies the shrink and
	// the sub-gradient step also accumulates ‖w‖² and the *next*
	// sample's dot product against the updated w — two independent add
	// chains — so every sum still adds the same terms in the same
	// order as a pass of its own would (DESIGN.md §8). The carried dot
	// product is recomputed where w or the next sample changes under
	// it: after a projection rescale and at each epoch's first sample,
	// whose index the shuffle has only just decided.
	lambda := p.Lambda
	w := make([]float64, dim)
	var b float64
	rng := rand.New(rand.NewSource(p.Seed))
	order := rng.Perm(n)
	t := 1
	for epoch := 0; epoch < p.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var dot float64
		for j, xj := range x[order[0]][:dim] {
			dot += w[j] * xj
		}
		for k, idx := range order {
			eta := 1 / (lambda * float64(t))
			t++
			yi := float64(y[idx])
			xi := x[idx][:dim]
			next := xi // the epoch's last sample carries nothing over
			if k+1 < n {
				next = x[order[k+1]]
			}
			next = next[:dim] // len(w), provably: no bounds checks in the loops below
			margin := yi * (dot + b)
			// Regularization shrink.
			shrink := 1 - eta*lambda
			var norm2 float64
			dot = 0
			if margin < 1 {
				classWeight := wNeg
				if y[idx] == ml.Positive {
					classWeight = wPos
				}
				step := eta * yi * classWeight
				for j := range w {
					wj := w[j] * shrink
					wj += step * xi[j]
					w[j] = wj
					norm2 += wj * wj
					dot += wj * next[j]
				}
				b += step * 0.1 // lightly-regularized bias channel
			} else {
				for j := range w {
					wj := w[j] * shrink
					w[j] = wj
					norm2 += wj * wj
					dot += wj * next[j]
				}
			}
			// Pegasos projection onto the ‖w‖ ≤ 1/√λ ball, which tames
			// the huge early learning rates.
			if bound := 1 / (lambda * norm2); bound < 1 {
				scale := math.Sqrt(bound)
				dot = 0
				for j := range w {
					wj := w[j] * scale
					w[j] = wj
					dot += wj * next[j]
				}
				b *= scale
			}
		}
	}
	p.w = w
	p.bias = b
	return nil
}

// DecisionValue implements ml.DecisionScorer.
func (p *Pegasos) DecisionValue(x []float64) (float64, error) {
	if p.w == nil {
		return 0, fmt.Errorf("svm: model not fitted")
	}
	if len(x) != len(p.w) {
		return 0, fmt.Errorf("svm: input dim %d, model dim %d", len(x), len(p.w))
	}
	f := p.bias
	for j := range p.w {
		f += p.w[j] * x[j]
	}
	return f, nil
}

// Predict implements ml.Classifier.
func (p *Pegasos) Predict(x []float64) (int, error) {
	f, err := p.DecisionValue(x)
	if err != nil {
		return 0, err
	}
	if f >= 0 {
		return ml.Positive, nil
	}
	return ml.Negative, nil
}

// Model exposes the fitted hyperplane for serialization.
func (p *Pegasos) Model() (w []float64, bias float64, err error) {
	if p.w == nil {
		return nil, 0, fmt.Errorf("svm: model not fitted")
	}
	return append([]float64(nil), p.w...), p.bias, nil
}

// SetModel installs a serialized hyperplane.
func (p *Pegasos) SetModel(w []float64, bias float64) error {
	if len(w) == 0 {
		return fmt.Errorf("svm: empty weight vector")
	}
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("svm: weight %d is %v", i, v)
		}
	}
	p.defaults()
	p.w = append([]float64(nil), w...)
	p.bias = bias
	return nil
}
