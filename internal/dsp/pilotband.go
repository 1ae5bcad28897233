package dsp

import "fmt"

// PilotBand is the per-capture kernel of the white-space device: from one
// trip over a power-of-two capture it returns what the three signal
// features are made of —
//
//   - energyMW: the mean per-sample power of the raw samples (RSS),
//   - centerMW: the power of the centre bin of the FFT-shifted power
//     spectrum, i.e. the DC bin (CFT),
//   - bandMeanMW: the mean power of the central width bins of that
//     spectrum, shifted bins [n/2−width/2, n/2−width/2+width) (AFT).
//
// coef, when non-nil, is an analysis window of len(samples) coefficients
// applied before the transform; the energy always comes from the raw
// samples.
//
// The spectrum is never materialized. The load pass gathers the samples
// bit-reversed into pooled scratch while the energy accumulates in index
// order, all but the last two butterfly stages run in full, and the last
// two are evaluated only for the outputs the band reads (114 of 256
// multiplies at n = 256, width = 38). Every value is produced by the same
// operations on the same operands in the same order as the full chain
// (mean of |s|²; FFT; |X[k]|²/n² summed over the band in shifted-bin
// order), so the results are bit-identical to it on finite captures — see
// fftPlan.transform.
func PilotBand(samples []complex128, coef []float64, width int) (energyMW, centerMW, bandMeanMW float64, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("dsp: empty capture")
	}
	p, err := planFor(n)
	if err != nil {
		return 0, 0, 0, err
	}
	if coef != nil && len(coef) != n {
		return 0, 0, 0, fmt.Errorf("dsp: %d window coefficients for %d samples", len(coef), n)
	}
	if width < 1 || width > n {
		return 0, 0, 0, fmt.Errorf("dsp: centre band of %d bins in a %d-bin spectrum", width, n)
	}

	// The band in FFT order: bins [n−up, n) then [0, low), which is the
	// order the shifted spectrum is summed in.
	up := width / 2
	low := width - up
	stages, tw := p.stages, p.tw
	nn := float64(n)
	bufp, x := scratch(n)
	defer fftScratch.Put(bufp)

	if stages < 3 || width > n/4 {
		// Too short or too wide to prune: run the whole transform.
		energyMW = p.transform(x, samples, coef, tw, stages) / nn
		var sum float64
		for _, c := range x[n-up:] {
			sum += binPower(c, nn)
		}
		for _, c := range x[:low] {
			sum += binPower(c, nn)
		}
		return energyMW, binPower(x[0], nn), sum / float64(width), nil
	}

	energyMW = p.transform(x, samples, coef, tw, stages-2) / nn

	// Second-to-last stage (half-size n/4, twiddle stride 2) in both
	// halves: the final stage reads positions [0, low) and [n/2−up, n/2)
	// of each, which are the u+v outputs of pairs [0, low) and the u−v
	// outputs of pairs [n/4−up, n/4). width ≤ n/4 keeps them disjoint.
	half, quarter := n/2, n/4
	for s := 0; s < n; s += half {
		a := x[s:][:quarter:quarter]
		b := x[s+quarter:][:quarter:quarter]
		a[0] += b[0]
		for j := 1; j < low; j++ {
			a[j] += b[j] * tw[2*j]
		}
		for j := quarter - up; j < quarter; j++ {
			b[j] = a[j] - b[j]*tw[2*j]
		}
	}

	// Last stage, straight into powers: bin j+n/2 is u−v of pair j, bin j
	// is u+v.
	a := x[:half:half]
	b := x[half:][:half:half]
	var sum float64
	for j := half - up; j < half; j++ {
		sum += binPower(a[j]-b[j]*tw[j], nn)
	}
	centerMW = binPower(a[0]+b[0], nn)
	sum += centerMW
	for j := 1; j < low; j++ {
		sum += binPower(a[j]+b[j]*tw[j], nn)
	}
	return energyMW, centerMW, sum / float64(width), nil
}
