package svm

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/wsdetect/waldo/internal/ml"
)

// SMO is a binary SVM trained with the sequential-minimal-optimization
// algorithm (simplified Platt variant with an error cache). It is the
// exact reference trainer; use RFFSVM for large training sets.
type SMO struct {
	// Kernel defaults to RBF{Gamma: 0.5}.
	Kernel RBF
	// C is the soft-margin penalty; default 10.
	C float64
	// Tol is the KKT violation tolerance; default 1e-3.
	Tol float64
	// MaxPasses is the number of consecutive all-clean sweeps required
	// to declare convergence; default 3.
	MaxPasses int
	// Seed drives the working-pair randomization.
	Seed int64

	// fitted state
	svX   [][]float64 // support vectors
	svAY  []float64   // alpha_i * y_i for each support vector
	b     float64
	dim   int
	iters int
}

var _ ml.Classifier = (*SMO)(nil)
var _ ml.DecisionScorer = (*SMO)(nil)

func (s *SMO) defaults() {
	if s.Kernel.Gamma == 0 {
		s.Kernel = RBF{Gamma: 0.5}
	}
	if s.C == 0 {
		s.C = 10
	}
	if s.Tol == 0 {
		s.Tol = 1e-3
	}
	if s.MaxPasses == 0 {
		s.MaxPasses = 3
	}
}

// Fit implements ml.Classifier.
func (s *SMO) Fit(x [][]float64, y []int) error {
	s.defaults()
	dim, err := ml.CheckTrainingSet(x, y)
	if err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	if s.C < 0 || s.Tol <= 0 || s.MaxPasses < 1 {
		return fmt.Errorf("svm: invalid hyperparameters C=%v tol=%v passes=%d", s.C, s.Tol, s.MaxPasses)
	}
	n := len(x)
	yf := make([]float64, n)
	for i, yi := range y {
		yf[i] = float64(yi)
	}

	// Kernel matrix cache for moderate n (float32 keeps it ~16 MB at
	// n=2048); beyond that, rows are computed on demand.
	var kmat []float32
	cached := n <= 2048
	kern := func(i, j int) float64 {
		if cached {
			return float64(kmat[i*n+j])
		}
		return s.Kernel.Eval(x[i], x[j])
	}
	if cached {
		kmat = make([]float32, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := float32(s.Kernel.Eval(x[i], x[j]))
				kmat[i*n+j] = v
				kmat[j*n+i] = v
			}
		}
	}

	alpha := make([]float64, n)
	errs := make([]float64, n) // E_i = f(x_i) − y_i; with all-zero alphas f = b = 0
	for i := range errs {
		errs[i] = -yf[i]
	}
	var b float64
	rng := rand.New(rand.NewSource(s.Seed))

	maxIters := 400 * n
	passes := 0
	for passes < s.MaxPasses && s.iters < maxIters {
		changed := 0
		for i := 0; i < n && s.iters < maxIters; i++ {
			s.iters++
			ei := errs[i]
			if !((yf[i]*ei < -s.Tol && alpha[i] < s.C) || (yf[i]*ei > s.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := errs[j]

			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if yf[i] != yf[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(s.C, s.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-s.C)
				hi = math.Min(s.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*kern(i, j) - kern(i, i) - kern(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - yf[j]*(ei-ej)/eta
			ajNew = math.Min(hi, math.Max(lo, ajNew))
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + yf[i]*yf[j]*(aj-ajNew)

			b1 := b - ei - yf[i]*(aiNew-ai)*kern(i, i) - yf[j]*(ajNew-aj)*kern(i, j)
			b2 := b - ej - yf[i]*(aiNew-ai)*kern(i, j) - yf[j]*(ajNew-aj)*kern(j, j)
			var bNew float64
			switch {
			case aiNew > 0 && aiNew < s.C:
				bNew = b1
			case ajNew > 0 && ajNew < s.C:
				bNew = b2
			default:
				bNew = (b1 + b2) / 2
			}

			dai := (aiNew - ai) * yf[i]
			daj := (ajNew - aj) * yf[j]
			db := bNew - b
			for k := 0; k < n; k++ {
				errs[k] += dai*kern(i, k) + daj*kern(j, k) + db
			}
			alpha[i], alpha[j], b = aiNew, ajNew, bNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Retain support vectors only.
	s.svX = s.svX[:0]
	s.svAY = s.svAY[:0]
	for i := range alpha {
		if alpha[i] > 1e-8 {
			v := make([]float64, dim)
			copy(v, x[i])
			s.svX = append(s.svX, v)
			s.svAY = append(s.svAY, alpha[i]*yf[i])
		}
	}
	s.b = b
	s.dim = dim
	if len(s.svX) == 0 {
		return fmt.Errorf("svm: training produced no support vectors")
	}
	return nil
}

// DecisionValue implements ml.DecisionScorer.
func (s *SMO) DecisionValue(x []float64) (float64, error) {
	if s.dim == 0 {
		return 0, fmt.Errorf("svm: model not fitted")
	}
	if len(x) != s.dim {
		return 0, fmt.Errorf("svm: input dim %d, model dim %d", len(x), s.dim)
	}
	f := s.b
	for i, sv := range s.svX {
		f += s.svAY[i] * s.Kernel.Eval(sv, x)
	}
	return f, nil
}

// Predict implements ml.Classifier.
func (s *SMO) Predict(x []float64) (int, error) {
	f, err := s.DecisionValue(x)
	if err != nil {
		return 0, err
	}
	if f >= 0 {
		return ml.Positive, nil
	}
	return ml.Negative, nil
}

// Model exposes the fitted parameters for serialization: support vectors,
// their alpha·y coefficients, and the bias.
func (s *SMO) Model() (sv [][]float64, coef []float64, bias float64, err error) {
	if s.dim == 0 {
		return nil, nil, 0, fmt.Errorf("svm: model not fitted")
	}
	sv = make([][]float64, len(s.svX))
	for i := range s.svX {
		sv[i] = append([]float64(nil), s.svX[i]...)
	}
	return sv, append([]float64(nil), s.svAY...), s.b, nil
}

// SetModel installs previously serialized parameters, all of which must
// be finite.
func (s *SMO) SetModel(sv [][]float64, coef []float64, bias float64) error {
	s.defaults()
	if len(sv) == 0 || len(sv) != len(coef) {
		return fmt.Errorf("svm: bad model (%d vectors, %d coefs)", len(sv), len(coef))
	}
	dim := len(sv[0])
	for i := range sv {
		if len(sv[i]) != dim {
			return fmt.Errorf("svm: ragged support vectors at %d", i)
		}
		for j, v := range sv[i] {
			if !finite(v) {
				return fmt.Errorf("svm: support vector %d[%d] is %v", i, j, v)
			}
		}
		if !finite(coef[i]) {
			return fmt.Errorf("svm: coefficient %d is %v", i, coef[i])
		}
	}
	if !finite(bias) {
		return fmt.Errorf("svm: bias is %v", bias)
	}
	s.svX = make([][]float64, len(sv))
	for i := range sv {
		s.svX[i] = append([]float64(nil), sv[i]...)
	}
	s.svAY = append([]float64(nil), coef...)
	s.b = bias
	s.dim = dim
	return nil
}
