// Package dsp implements the signal-processing primitives the Waldo
// pipeline needs: a radix-2 FFT behind the capture kernel and the power
// spectrum, summary statistics, percentile and confidence-interval
// machinery, empirical CDFs, and the special functions backing ANOVA
// p-values.
//
// Everything is deterministic and allocation-conscious: feature extraction
// runs once per I/Q capture on the mobile white-space device, so the FFT and
// statistics here are the per-reading hot path (paper §5 measures this cost
// as CPU overhead).
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// fftPlan holds what every transform of one size shares: the twiddle
// factors e^{-2πi k/n} for k < n/2 and the bit-reversal permutation of
// the unnormalized transform X[k] = Σ x[n]·e^{-2πi kn/N}. Feature
// extraction runs one transform per capture on the mobile hot path, so a
// plan is computed once per process and looked up lock- and
// allocation-free afterwards. Each twiddle is evaluated directly from its
// angle, which is more accurate than the incremental w *= wStep
// recurrence.
type fftPlan struct {
	stages int // log2(n)
	tw     []complex128
	rev    []int32
}

// fftPlans caches one plan per power-of-two size, indexed by log2(n).
var fftPlans [64]atomic.Pointer[fftPlan]

func planFor(n int) (*fftPlan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dsp: FFT length %d is too large", n)
	}
	idx := bits.TrailingZeros(uint(n))
	if p := fftPlans[idx].Load(); p != nil {
		return p, nil
	}
	p := &fftPlan{
		stages: idx,
		tw:     make([]complex128, n/2),
		rev:    make([]int32, n),
	}
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	shift := 64 - uint(idx)
	for i := 1; i < n; i++ { // n = 1 would shift by 64; rev[0] is 0 anyway
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	fftPlans[idx].Store(p)
	return p, nil
}

// transform writes to dst the first `stages` radix-2 decimation-in-time
// stages of the len(src)-point transform of src — all log2(n) of them for
// the full transform, p.stages — and returns Σ|src[i]|², accumulated in
// index order. dst and src must not overlap.
//
// This is the one butterfly implementation behind PowerSpectrumInto and
// PilotBand, and it follows the kernel rule
// (DESIGN.md §8): every output is produced by the same operations on the
// same operands in the same order as the textbook loop in fft_test.go
// (v = x[k+half]·w; x[k], x[k+half] = u+v, u−v), with one exception —
// twiddle index 0 is exactly 1, and that multiply is skipped. On finite
// input the skip can only change the sign of a zero: every nonzero value,
// and every power computed from the output, is bit-identical.
//
// Stages run two per trip over the data. The first trip also does the
// loading: output group g of four is made of the samples at rev[4g] + 0,
// n/2, n/4 and 3n/4, so it gathers them while the energy sum — a chain of
// n dependent adds, which would otherwise cost as much as two stages —
// proceeds through samples 4g..4g+3 in the shadow of the butterflies.
func (p *fftPlan) transform(dst, src []complex128, stages int) (sumSq float64) {
	n, tw := len(src), p.tw
	dst = dst[:n]
	if stages < 2 {
		for i, s := range src {
			sumSq += sqAbs(s)
			dst[p.rev[i]] = s
		}
		if stages == 1 {
			stageOne(dst, tw, 1)
		}
		return sumSq
	}

	wq := tw[n/4]
	for i := 0; i+3 < n; i += 4 {
		s := src[i : i+4 : i+4]
		sumSq += sqAbs(s[0])
		sumSq += sqAbs(s[1])
		sumSq += sqAbs(s[2])
		sumSq += sqAbs(s[3])
		r := int(p.rev[i])
		r1, r2, r3 := r+n/2, r+n/4, r+n/2+n/4
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = quad(src[r], src[r1], src[r2], src[r3], wq)
	}
	done, h := 2, 4
	for ; done+2 <= stages; done += 2 {
		stagePair(dst, tw, h)
		h *= 4
	}
	if done < stages {
		stageOne(dst, tw, h)
	}
	return sumSq
}

func sqAbs(c complex128) float64 {
	re, im := real(c), imag(c)
	return re*re + im*im
}

// quad is the j = 0 column of a stage pair, where three of the four
// twiddles are tw[0]: butterflies (a0, a1) and (a2, a3), then (·, ·) across
// them, the last with wq = tw[n/4] — (6.1e-17, −1) as tabulated, not −i.
func quad(a0, a1, a2, a3, wq complex128) (y0, y1, y2, y3 complex128) {
	u0, u1 := a0+a1, a0-a1
	u2, u3 := a2+a3, a2-a3
	v3 := u3 * wq
	return u0 + u2, u1 + v3, u0 - u2, u1 - v3
}

// stagePair runs the stages with half-sizes h and 2h in one trip. The
// four values at k, k+h, k+2h, k+3h (k = block start + j) meet in two
// butterflies of the first stage, both with tw[2jq], and two of the
// second, with tw[jq] and tw[(j+h)q], where q is the second stage's
// twiddle stride.
func stagePair(x, tw []complex128, h int) {
	n := len(x)
	q := n / (4 * h)
	wq := tw[n/4]
	for s := 0; s < n; s += 4 * h {
		b0 := x[s:][:h:h]
		b1 := x[s+h:][:h:h]
		b2 := x[s+2*h:][:h:h]
		b3 := x[s+3*h:][:h:h]
		b0[0], b1[0], b2[0], b3[0] = quad(b0[0], b1[0], b2[0], b3[0], wq)
		for j := 1; j < h; j++ {
			w1 := tw[2*j*q]
			v1 := b1[j] * w1
			u0, u1 := b0[j]+v1, b0[j]-v1
			v3 := b3[j] * w1
			u2, u3 := b2[j]+v3, b2[j]-v3
			v2 := u2 * tw[j*q]
			v3 = u3 * tw[(j+h)*q]
			b0[j], b2[j] = u0+v2, u0-v2
			b1[j], b3[j] = u1+v3, u1-v3
		}
	}
}

// stageOne runs the single stage with half-size h: the odd one out when
// the stage count is odd.
func stageOne(x, tw []complex128, h int) {
	n := len(x)
	q := n / (2 * h)
	for s := 0; s < n; s += 2 * h {
		a := x[s:][:h:h]
		b := x[s+h:][:h:h]
		a[0], b[0] = a[0]+b[0], a[0]-b[0]
		for j := 1; j < h; j++ {
			v := b[j] * tw[j*q]
			a[j], b[j] = a[j]+v, a[j]-v
		}
	}
}

// fftScratch pools transform work buffers for PowerSpectrumInto and
// PilotBand: feature extraction runs once per capture, and without the
// pool every capture paid a []complex128 allocation.
var fftScratch = sync.Pool{New: func() any { return new([]complex128) }}

// scratch returns a pooled work buffer of n values; hand the pointer back
// with fftScratch.Put.
func scratch(n int) (*[]complex128, []complex128) {
	bufp := fftScratch.Get().(*[]complex128)
	if cap(*bufp) < n {
		*bufp = make([]complex128, n)
	}
	return bufp, (*bufp)[:n]
}

// PowerSpectrumInto computes the power spectrum of x into dst, which must
// have the same length, leaving x untouched. It allocates nothing in
// steady state: the FFT work buffer comes from a pool and the twiddle
// factors from the per-size cache.
func PowerSpectrumInto(dst []float64, x []complex128) error {
	if len(dst) != len(x) {
		return fmt.Errorf("dsp: power spectrum into %d bins for %d samples", len(dst), len(x))
	}
	if len(x) == 0 {
		return nil
	}
	p, err := planFor(len(x))
	if err != nil {
		return err
	}
	bufp, buf := scratch(len(x))
	p.transform(buf, x, p.stages)
	n := float64(len(x))
	for i, c := range buf {
		dst[i] = binPower(c, n)
	}
	fftScratch.Put(bufp)
	return nil
}

// binPower is |c|²/n², the power of one bin of an n-point transform.
func binPower(c complex128, n float64) float64 {
	re, im := real(c), imag(c)
	return (re*re + im*im) / (n * n)
}
