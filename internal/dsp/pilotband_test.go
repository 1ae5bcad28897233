package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// referencePilotBand is the chain PilotBand replaces, spelled out on the
// textbook transform: mean |s|², the full power spectrum, then the DC bin
// and the band summed in shifted-bin order.
func referencePilotBand(samples []complex128, coef []float64, width int) (energy, center, band float64) {
	n := len(samples)
	var sum float64
	for _, s := range samples {
		sum += real(s)*real(s) + imag(s)*imag(s)
	}
	energy = sum / float64(n)
	x := append([]complex128(nil), samples...)
	for i := range coef {
		x[i] *= complex(coef[i], 0)
	}
	referenceFFT(x, false)
	nn := float64(n)
	power := func(k int) float64 {
		re, im := real(x[k]), imag(x[k])
		return (re*re + im*im) / (nn * nn)
	}
	sum = 0
	lo := n/2 - width/2
	for i := lo; i < lo+width; i++ {
		sum += power((i + n/2) % n)
	}
	return energy, power(0), sum / float64(width)
}

// TestPilotBandMatchesReference covers every width at every size, so both
// exits — pruned, and the full transform for short captures and bands
// wider than a quarter of the spectrum — are held to bit equality.
func TestPilotBandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 1; n <= 1024; n *= 2 {
		hann, err := WindowHann.Coefficients(n)
		if err != nil {
			t.Fatal(err)
		}
		widths := []int{1, 2, 3, n / 8, n/8 + 1, n / 4, n/4 + 1, n / 2, n - 1, n}
		for _, w := range widths {
			if w < 1 || w > n {
				continue
			}
			for _, coef := range [][]float64{nil, hann} {
				x := randomCapture(rng, n)
				e, c, b, err := PilotBand(x, coef, w)
				if err != nil {
					t.Fatal(err)
				}
				we, wc, wb := referencePilotBand(x, coef, w)
				for _, p := range [][2]float64{{e, we}, {c, wc}, {b, wb}} {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
						t.Fatalf("n=%d width=%d windowed=%v: (%v %v %v), reference (%v %v %v)",
							n, w, coef != nil, e, c, b, we, wc, wb)
					}
				}
			}
		}
	}
}

func TestPilotBandValidation(t *testing.T) {
	x := make([]complex128, 16)
	for name, call := range map[string]func() error{
		"empty":            func() error { _, _, _, err := PilotBand(nil, nil, 1); return err },
		"not power of two": func() error { _, _, _, err := PilotBand(x[:12], nil, 1); return err },
		"zero width":       func() error { _, _, _, err := PilotBand(x, nil, 0); return err },
		"width over n":     func() error { _, _, _, err := PilotBand(x, nil, 17); return err },
		"short window":     func() error { _, _, _, err := PilotBand(x, make([]float64, 8), 2); return err },
	} {
		if call() == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
