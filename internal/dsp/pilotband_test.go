package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// referencePilotBand is the chain PilotBand replaces, spelled out on the
// textbook transform: mean |s|², the full power spectrum, then the DC bin
// and the band summed in shifted-bin order.
func referencePilotBand(samples []complex128, width int) (energy, center, band float64) {
	n := len(samples)
	var sum float64
	for _, s := range samples {
		sum += real(s)*real(s) + imag(s)*imag(s)
	}
	energy = sum / float64(n)
	x := append([]complex128(nil), samples...)
	referenceFFT(x)
	nn := float64(n)
	power := func(k int) float64 {
		re, im := real(x[k]), imag(x[k])
		return (re*re + im*im) / (nn * nn)
	}
	if width == 0 {
		return energy, power(0), 0 // no band asked for
	}
	sum = 0
	lo := n/2 - width/2
	for i := lo; i < lo+width; i++ {
		sum += power((i + n/2) % n)
	}
	return energy, power(0), sum / float64(width)
}

// TestPilotBandMatchesReference covers every width at every size, so all
// three exits — the DC fold when no band is asked for (width 0), pruned,
// and the full transform for short captures and bands wider than a
// quarter of the spectrum — are held to bit equality.
func TestPilotBandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 1; n <= 1024; n *= 2 {
		widths := []int{0, 1, 2, 3, n / 8, n/8 + 1, n / 4, n/4 + 1, n / 2, n - 1, n}
		for _, w := range widths {
			if w < 0 || w > n {
				continue
			}
			reps := 1
			if w == 0 {
				reps = 50 // the device's path: also against the banded kernel
			}
			for rep := 0; rep < reps; rep++ {
				x := randomCapture(rng, n)
				e, c, b, err := PilotBand(x, w)
				if err != nil {
					t.Fatal(err)
				}
				we, wc, wb := referencePilotBand(x, w)
				be, bc, _, err := PilotBand(x, max(w, 1))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range [][2]float64{{e, we}, {c, wc}, {b, wb}, {e, be}, {c, bc}} {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
						t.Fatalf("n=%d width=%d: (%v %v %v), reference (%v %v %v), banded (%v %v)",
							n, w, e, c, b, we, wc, wb, be, bc)
					}
				}
			}
		}
	}
}

func TestPilotBandValidation(t *testing.T) {
	x := make([]complex128, 16)
	for name, call := range map[string]func() error{
		"empty":            func() error { _, _, _, err := PilotBand(nil, 1); return err },
		"not power of two": func() error { _, _, _, err := PilotBand(x[:12], 1); return err },
		"negative width":   func() error { _, _, _, err := PilotBand(x, -1); return err },
		"width over n":     func() error { _, _, _, err := PilotBand(x, 17); return err },
	} {
		if call() == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
