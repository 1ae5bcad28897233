package svm

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/wsdetect/waldo/internal/ml"
)

// Pegasos is a linear SVM trained by the Pegasos stochastic sub-gradient
// method (Shalev-Shwartz et al., ICML 2007). A fit of up to provenRows
// rows runs to a budget of stepBudget steps, whole epochs of one pass
// each, 2 at the least and 30 at the most; a larger one runs 30. It
// returns the average of every iterate of its last half of epochs, the
// suffix average of Rakhlin, Shamir and Sridharan (ICML 2012), not the
// last iterate: the bound is in steps, and the average
// does not hang on where one shuffle left the last one. Training is
// O(epochs·n·dim), which makes it the workhorse for full-campaign
// cross-validation sweeps.
type Pegasos struct {
	// Lambda is the regularization strength; default 1e-4.
	Lambda float64
	// Seed drives example shuffling.
	Seed int64
	// ClassBalance reweights the minority class's sub-gradients so
	// imbalanced channels don't collapse to the majority label.
	ClassBalance bool

	// steps replaces stepBudget when set; tests shorten a fit with it.
	steps int

	w    []float64
	bias float64
}

// stepBudget is the steps a fit takes: the smallest of 16 000, 20 000,
// …, 32 000 at which the averaged models of every one of four classifier
// seeds keep Fig. 17's oracle false-safe, summed over six campaigns,
// within one binomial σ of the shipped 30-epoch last iterate's, at 5 282
// and at 1 400 readings (EXPERIMENTS.md). At 5 282 readings a locality
// holds 1 495–2 113 rows and runs 14–19 epochs; under S/30 ≈ 930 rows
// the 30-epoch cap binds.
const stepBudget = 28000

// provenRows is the largest locality stepBudget was held to false-safe
// on: Fig. 17's fits at 5 282 readings hold 1 495–2 113 rows. Past it the
// budget is not safe: at 14 000 and 20 000 readings (3 963–7 927 rows)
// 14 averaged epochs read more false-safe than the 30-epoch last
// iterate, and 30 averaged epochs fewer (EXPERIMENTS.md), so a store
// that grows past it fits 30.
const provenRows = 2113

// epochs is the fit's pass count over n rows: ⌈steps/n⌉ within [2, 30]
// up to provenRows rows, 30 past them. Two is the least that leaves a
// whole epoch to average.
func (p *Pegasos) epochs(n int) int {
	if n > provenRows {
		return 30
	}
	steps := p.steps
	if steps == 0 {
		steps = stepBudget
	}
	return min(30, max(2, (steps+n-1)/n))
}

var _ ml.Classifier = (*Pegasos)(nil)
var _ ml.DecisionScorer = (*Pegasos)(nil)

func (p *Pegasos) defaults() {
	if p.Lambda == 0 {
		p.Lambda = 1e-4
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
	if p.Lambda <= 0 {
		return fmt.Errorf("svm: invalid hyperparameter lambda=%v", p.Lambda)
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
	//
	// The suffix average is as lazy: between two folds v moves only by
	// a violator's δ = (step/s)·x, so the sum of the iterates s·v over
	// those steps is σ·v − U, with σ the sum of s and U the sum of δ
	// times the σ before it, which the violator's own pass adds. The sum
	// a holds it from the fold on, O(dim) per fold, not per step. σ·v
	// and U each grow as 1/s, and their difference does not, so s is
	// folded from foldBelow on.
	lambda := p.Lambda
	epochs := p.epochs(n)
	avgFrom := epochs - epochs/2
	v := make([]float64, dim)
	var a, u []float64 // the average's sums, from epoch avgFrom on
	s, b := 1.0, 0.0
	var sigma, bSum float64
	rng := rand.New(rand.NewSource(p.Seed))
	order := rng.Perm(n)
	t := 1
	for epoch := 0; epoch < epochs; epoch++ {
		shuffleExact(rng, order)
		if epoch == avgFrom {
			a, u = make([]float64, dim), make([]float64, dim)
		} else if a != nil {
			accumulate(a, u, v, sigma)
			sigma = 0
		}
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
				if u == nil {
					vx = axpyDot(v, step/s, xi, next)
				} else {
					vx = axpyDotSum(v, u, step/s, sigma, xi, next)
				}
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
			if a != nil {
				sigma += s
				bSum += b
			}
			// A long run of projections (tiny λ) could take s to zero
			// within an epoch, and while averaging σ·v − U cancels as s
			// falls: fold early, long before either bites.
			if s < foldBelow {
				if a != nil {
					accumulate(a, u, v, sigma)
					sigma = 0
				}
				for j := range v {
					v[j] *= s
				}
				vx *= s
				s = 1
			}
		}
	}
	accumulate(a, u, v, sigma)
	averaged := float64((epochs - avgFrom) * n)
	for j := range a {
		a[j] /= averaged
	}
	p.w = a
	p.bias = bSum / averaged
	return nil
}

// foldBelow is the fold threshold: σ·v − U loses about log10(1/s) of its
// digits to the cancellation, so folding from s < 1e-4 on keeps that loss
// under four. A fold is O(dim), against the epoch's O(n·dim).
const foldBelow = 1e-4

// accumulate adds the sum of the iterates since the last fold, σ·v − U,
// to a and clears U for the next run of steps.
func accumulate(a, u, v []float64, sigma float64) {
	for j := range a {
		a[j] += sigma*v[j] - u[j]
		u[j] = 0
	}
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

// axpyDotSum is axpyDot while averaging: it also adds σ·c·x to u, the
// violator's term of the iterate sum, in the same pass.
func axpyDotSum(v, u []float64, c, sigma float64, x, next []float64) float64 {
	u, x, next = u[:len(v)], x[:len(v)], next[:len(v)]
	cu := sigma * c
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(v); j += 4 {
		v4, u4, x4, n4 := v[j:j+4:j+4], u[j:j+4:j+4], x[j:j+4:j+4], next[j:j+4:j+4]
		v4[0] += c * x4[0]
		v4[1] += c * x4[1]
		v4[2] += c * x4[2]
		v4[3] += c * x4[3]
		u4[0] += cu * x4[0]
		u4[1] += cu * x4[1]
		u4[2] += cu * x4[2]
		u4[3] += cu * x4[3]
		s0 += v4[0] * n4[0]
		s1 += v4[1] * n4[1]
		s2 += v4[2] * n4[2]
		s3 += v4[3] * n4[3]
	}
	for ; j < len(v); j++ {
		v[j] += c * x[j]
		u[j] += cu * x[j]
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
