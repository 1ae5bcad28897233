package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceFFT is the textbook radix-2 decimation-in-time loop FFT and
// IFFT ran until the stage-fused transform replaced it: bit-reversal
// swaps, then one stage at a time, every butterfly multiplying by its
// twiddle — evaluated here from its angle, not read from the plan. It is
// the oracle the kernel rule (DESIGN.md §8) is checked against.
func referenceFFT(x []complex128, inverse bool) {
	n := len(x)
	if n < 2 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			for j := 0; j < half; j++ {
				w := tw[j*stride]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				k := start + j
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
			}
		}
	}
}

// sameBits is Float64bits equality, except that the two zeros are equal:
// skipping the multiply by the exact-1 twiddle keeps a −0 the reference
// turns into +0, which no nonzero value and no power can observe.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func randomCapture(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	scale := math.Pow(10, 6*rng.Float64()-6)
	for i := range x {
		x[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
	}
	return x
}

// TestFFTMatchesReference: the rebuilt transform is bit-equal to the
// textbook loop at every size, both directions, and so are the powers
// PowerSpectrumInto derives from it.
func TestFFTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 1; n <= 4096; n *= 2 {
		for rep := 0; rep < 8; rep++ {
			x := randomCapture(rng, n)
			if rep == 0 {
				x = make([]complex128, n) // all-zero
			}
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), x...)
				referenceFFT(want, inverse)
				got := append([]complex128(nil), x...)
				if err := fft(got, inverse); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
						t.Fatalf("n=%d inverse=%v bin %d: %v, reference %v", n, inverse, i, got[i], want[i])
					}
				}
			}
			want := append([]complex128(nil), x...)
			referenceFFT(want, false)
			ps, err := PowerSpectrum(x)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range want {
				nn := float64(n)
				if p := (real(c)*real(c) + imag(c)*imag(c)) / (nn * nn); math.Float64bits(ps[i]) != math.Float64bits(p) {
					t.Fatalf("n=%d power bin %d: %v, reference %v", n, i, ps[i], p)
				}
			}
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 100} {
		x := make([]complex128, n)
		if err := FFT(x); err == nil {
			t.Errorf("FFT(len=%d) should fail", n)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Errorf("FFT(nil) = %v", err)
	}
	x := []complex128{3 + 4i}
	if err := FFT(x); err != nil || x[0] != 3+4i {
		t.Errorf("FFT single = %v, %v", x, err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k concentrates all energy in that bin.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for bin, v := range x {
		mag := cmplx.Abs(v)
		if bin == k {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Errorf("bin %d magnitude = %v, want %v", bin, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want ~0", bin, mag)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 64, 256, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("n=%d round trip failed at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

// TestFFTParseval checks energy conservation: Σ|x|² == Σ|X|²/N.
func TestFFTParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 256
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= n
		return math.Abs(timeEnergy-freqEnergy) < 1e-8*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPowerSpectrumDC(t *testing.T) {
	// Constant signal: all power in the DC bin, equal to amplitude².
	x := make([]complex128, 32)
	for i := range x {
		x[i] = 2
	}
	ps, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ps[0]-4) > 1e-12 {
		t.Errorf("DC power = %v, want 4", ps[0])
	}
	for k := 1; k < len(ps); k++ {
		if ps[k] > 1e-12 {
			t.Errorf("bin %d power = %v, want 0", k, ps[k])
		}
	}
	// Input must be untouched.
	for i := range x {
		if x[i] != 2 {
			t.Fatal("PowerSpectrum mutated its input")
		}
	}
}

// TestFFTZeroAlloc pins the hot-path allocation contract: once the
// twiddle table for a size exists and the scratch pool is warm, neither
// FFT nor PowerSpectrumInto allocates. This is what BenchmarkFFT256's
// 0 allocs/op measures; the test makes it a hard failure instead of a
// benchmark regression.
func TestFFTZeroAlloc(t *testing.T) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%3))
	}
	buf := make([]complex128, 256)
	dst := make([]float64, 256)
	// Warm the twiddle cache and scratch pool.
	if err := PowerSpectrumInto(dst, x); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		copy(buf, x)
		if err := FFT(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FFT allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := PowerSpectrumInto(dst, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PowerSpectrumInto allocs/op = %v, want 0", n)
	}
}

func TestPowerSpectrumIntoValidation(t *testing.T) {
	if err := PowerSpectrumInto(make([]float64, 8), make([]complex128, 16)); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := PowerSpectrumInto(nil, nil); err != nil {
		t.Errorf("empty input: %v", err)
	}
}

func TestFFTShift(t *testing.T) {
	ps := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	shifted := FFTShift(ps)
	want := []float64{4, 5, 6, 7, 0, 1, 2, 3}
	for i := range want {
		if shifted[i] != want[i] {
			t.Fatalf("FFTShift = %v, want %v", shifted, want)
		}
	}
	// DC (index 0) must land at the center bin n/2.
	if shifted[4] != 0 {
		t.Errorf("DC bin not centered: %v", shifted)
	}
}
