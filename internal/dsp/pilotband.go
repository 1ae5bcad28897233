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
// width 0 asks for no band (bandMeanMW is 0). The DC bin is then all
// that is left of the transform: additions alone, in the energy's pass.
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
func PilotBand(samples []complex128, width int) (energyMW, centerMW, bandMeanMW float64, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("dsp: empty capture")
	}
	p, err := planFor(n)
	if err != nil {
		return 0, 0, 0, err
	}
	if width < 0 || width > n {
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

	if width == 0 {
		sumSq, dc := dcFold(x, samples)
		return sumSq / nn, binPower(dc, nn), 0, nil
	}
	if stages < 3 || width > n/4 {
		// Too short or too wide to prune: run the whole transform.
		energyMW = p.transform(x, samples, stages) / nn
		var sum float64
		for _, c := range x[n-up:] {
			sum += binPower(c, nn)
		}
		for _, c := range x[:low] {
			sum += binPower(c, nn)
		}
		return energyMW, binPower(x[0], nn), sum / float64(width), nil
	}

	energyMW = p.transform(x, samples, stages-2) / nn

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

// dcFold returns bin 0 of the transform of src and Σ|src[i]|² in index
// order, with x as scratch. Bin 0 is a fold in half, s[j] += s[j+h] for
// h = n/2, n/4, …, 1: the j = 0 butterflies, whose twiddle-0 multiply
// fftPlan.transform skips, so the adds are the transform's own, in its
// order, and both results are bit-identical to it.
func dcFold(x, src []complex128) (sumSq float64, dc complex128) {
	h := len(src) / 2
	if h == 0 {
		return sqAbs(src[0]), src[0]
	}
	x = x[:h:h]
	lo, hi := src[:h:h], src[h:2*h:2*h]
	for i, s := range lo {
		sumSq += sqAbs(s)
		x[i] = s + hi[i]
	}
	for _, s := range hi {
		sumSq += sqAbs(s)
	}
	for h /= 2; h > 0; h /= 2 {
		a, b := x[:h:h], x[h:2*h:2*h]
		for j := range a {
			a[j] += b[j]
		}
	}
	return sumSq, x[0]
}
