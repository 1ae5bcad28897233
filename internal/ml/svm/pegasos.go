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
	if _, err := ml.CheckTrainingSet(x, y); err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	xnorm2 := make([]float64, len(x))
	for i := range x {
		xnorm2[i] = dot(x[i], x[i])
	}
	return p.fitChecked(x, y, xnorm2)
}

// fitChecked trains on rows that pass ml.CheckTrainingSet, given each
// row's squared norm; RFFSVM.Fit, which checks and measures its rows as
// it makes them, enters here.
func (p *Pegasos) fitChecked(x [][]float64, y []int, xnorm2 []float64) error {
	p.defaults()
	if p.Lambda <= 0 || p.Epochs < 1 {
		return fmt.Errorf("svm: invalid hyperparameters lambda=%v epochs=%d", p.Lambda, p.Epochs)
	}
	n, dim := len(x), len(x[0])

	// Inverse-frequency class weights normalized to mean 1, signed by
	// the label: yw[i] = yᵢ·weight(yᵢ).
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
	yw := make([]float64, n)
	for i, yi := range y {
		yw[i] = -wNeg
		if yi == ml.Positive {
			yw[i] = wPos
		}
	}

	// Scaled form: w = s·v. The regularization shrink and the projection
	// rescale w, which here is one multiply of s (and of the running
	// ‖w‖², and for the projection of b); only a margin violator touches
	// the vector, v += (step/s)·x, and that pass also takes the next
	// sample's dot product. The dot product is carried against v, not
	// w, so no rescale invalidates it. ‖w‖² follows from the margin's
	// own w·x: ‖shrink·w + step·x‖² = shrink²‖w‖² + 2·step·(shrink·w)·x
	// + step²‖x‖². Each epoch opens by folding s into v and measuring
	// ‖w‖² again, so rounding in either does not outlive n samples
	// (DESIGN.md §8 has the rule this loop is held to).
	lambda := p.Lambda
	v := make([]float64, dim)
	s, b := 1.0, 0.0
	rng := rand.New(rand.NewSource(p.Seed))
	order := rng.Perm(n)
	t := 1
	for epoch := 0; epoch < p.Epochs; epoch++ {
		shuffleExact(rng, order)
		var norm2 float64
		for j := range v {
			v[j] *= s
			norm2 += v[j] * v[j]
		}
		s = 1
		vx := dot(v, x[order[0]][:dim]) // v·x of the sample at hand
		for k, idx := range order {
			eta := 1 / (lambda * float64(t))
			yi := float64(y[idx])
			xi := x[idx][:dim]
			next := xi // the epoch's last sample carries nothing over
			if k+1 < n {
				next = x[order[k+1]][:dim]
			}
			margin := yi * (s*vx + b)
			// Regularization shrink. At t = 1 the factor is 0 and w is
			// still zero: leave s alone, it divides the step below.
			if t > 1 {
				shrink := 1 - eta*lambda
				s *= shrink
				norm2 *= shrink * shrink
			}
			t++
			if margin < 1 {
				step := eta * yw[idx] // yᵢ = ±1: η·yᵢ·weight to the bit
				norm2 += 2*step*(s*vx) + step*step*xnorm2[idx]
				vx = axpyDot(v, step/s, xi, next)
				b += step * 0.1 // lightly-regularized bias channel
			} else {
				vx = dot(v, next)
			}
			// Pegasos projection onto the ‖w‖ ≤ 1/√λ ball, which tames
			// the huge early learning rates.
			if lambda*norm2 > 1 {
				bound := 1 / (lambda * norm2)
				scale := math.Sqrt(bound)
				s *= scale
				norm2 *= bound
				b *= scale
			}
			// A long run of projections (tiny λ) could take s to zero
			// within an epoch; fold early, long before it does.
			if s < 1e-100 {
				for j := range v {
					v[j] *= s
				}
				vx *= s
				s = 1
			}
		}
	}
	for j := range v {
		v[j] *= s
	}
	p.w = v
	p.bias = b
	return nil
}

// shuffleExact permutes order as math/rand's Shuffle with a swap does and
// leaves rng where it does, without a closure call per element: math/rand's
// own loop and int31n (multiply-shift on Uint32, the same rejection
// threshold) for the under-2³¹ lengths a training set has, held to the
// library by TestShuffleExactMatchesRandShuffle.
func shuffleExact(rng *rand.Rand, order []int) {
	for i := len(order) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			for thresh := -n % n; low < thresh; low = uint32(prod) {
				prod = uint64(rng.Uint32()) * uint64(n)
			}
		}
		j := int(prod >> 32)
		order[i], order[j] = order[j], order[i]
	}
}

// dot returns a·b over len(a) elements in four interleaved partial sums,
// combined (s0+s1)+(s2+s3): four add chains the processor can overlap
// where one would wait on itself.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(a); j += 4 {
		a4, b4 := a[j:j+4:j+4], b[j:j+4:j+4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
	}
	for ; j < len(a); j++ {
		s0 += a[j] * b[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpyDot does v += c·x and returns the updated v·next, summed as dot
// sums: the margin violator's update and the next sample's dot product
// in one pass over v.
func axpyDot(v []float64, c float64, x, next []float64) float64 {
	x, next = x[:len(v)], next[:len(v)]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(v); j += 4 {
		v4, x4, n4 := v[j:j+4:j+4], x[j:j+4:j+4], next[j:j+4:j+4]
		v4[0] += c * x4[0]
		v4[1] += c * x4[1]
		v4[2] += c * x4[2]
		v4[3] += c * x4[3]
		s0 += v4[0] * n4[0]
		s1 += v4[1] * n4[1]
		s2 += v4[2] * n4[2]
		s3 += v4[3] * n4[3]
	}
	for ; j < len(v); j++ {
		v[j] += c * x[j]
		s0 += v[j] * next[j]
	}
	return (s0 + s1) + (s2 + s3)
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

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SetModel installs a serialized hyperplane. Descriptors come off the
// network, so every value must be finite.
func (p *Pegasos) SetModel(w []float64, bias float64) error {
	if len(w) == 0 {
		return fmt.Errorf("svm: empty weight vector")
	}
	for i, v := range w {
		if !finite(v) {
			return fmt.Errorf("svm: weight %d is %v", i, v)
		}
	}
	// A bias of +Inf would score every input +Inf: Safe everywhere.
	if !finite(bias) {
		return fmt.Errorf("svm: bias is %v", bias)
	}
	p.defaults()
	p.w = append([]float64(nil), w...)
	p.bias = bias
	return nil
}
