package dsp

import (
	"math/rand"
	"testing"
)

func benchSignal(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// BenchmarkPowerSpectrum256 is the full transform at the per-capture
// size on the mobile WSD (256 I/Q samples per reading, §2.1): FFT and
// |X[k]|²/N² into a caller buffer. With the
// pooled scratch buffer and cached twiddle factors it is alloc-free.
func BenchmarkPowerSpectrum256(b *testing.B) {
	x := benchSignal(256)
	dst := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := PowerSpectrumInto(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 95)
	}
}

func BenchmarkMeanCI(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeanCI(xs, 0.9)
	}
}
