// Package svm provides two support-vector-machine trainers: an exact SMO
// solver with the RBF kernel (the reference implementation, suited to
// per-cluster datasets), and a Pegasos stochastic sub-gradient linear SVM
// that — composed with random Fourier features — approximates the RBF
// kernel at a small fraction of the training cost, which is what lets the
// full 5,282-readings-per-channel campaigns cross-validate quickly.
package svm

import "math"

// RBF is the Gaussian kernel exp(−γ‖a−b‖²), the one SMO solves with.
type RBF struct {
	// Gamma is the inverse squared length scale; must be positive.
	Gamma float64
}

// Eval computes k(a, b). It assumes equal lengths.
func (k RBF) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}
