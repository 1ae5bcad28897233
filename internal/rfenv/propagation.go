package rfenv

import "math"

// PathLossModel predicts median propagation loss between a transmitter and
// a receiver.
type PathLossModel interface {
	// PathLossDB returns the median path loss in dB for a link of distM
	// meters at fMHz, with transmitter antenna height hTxM and receiver
	// antenna height hRxM (meters).
	PathLossDB(distM, fMHz, hTxM, hRxM float64) float64
	// Name identifies the model in reports.
	Name() string
}

// FreeSpace is the free-space path-loss model, the most optimistic bound
// (one of the generic models surveyed in the related work, §7).
type FreeSpace struct{}

// Name implements PathLossModel.
func (FreeSpace) Name() string { return "free-space" }

// PathLossDB implements PathLossModel.
// FSPL(dB) = 20·log10(d_km) + 20·log10(f_MHz) + 32.44.
func (FreeSpace) PathLossDB(distM, fMHz, _, _ float64) float64 {
	dKM := math.Max(distM/1000, 0.001)
	return 20*math.Log10(dKM) + 20*math.Log10(fMHz) + 32.44
}

// HataUrban is the Okumura–Hata empirical model for urban areas (Hata 1980,
// paper ref [31]), valid for 150–1500 MHz, the model the paper draws its
// antenna correction factor from.
type HataUrban struct {
	// LargeCity selects the large-city mobile antenna correction used in
	// the paper (a(hm) = 3.2·(log10(11.5·hm))² − 4.97); otherwise the
	// small/medium-city correction applies.
	LargeCity bool
}

// Name implements PathLossModel.
func (h HataUrban) Name() string {
	if h.LargeCity {
		return "hata-urban-large"
	}
	return "hata-urban"
}

// MobileAntennaCorrectionDB returns Hata's mobile-antenna height correction
// a(hm) in dB. The paper (§2.1) uses the large-city UHF form
// a(hm) = 3.2·(log10(11.5·hm))² − 4.97 and derives a 7.5 dB correction for
// the 8 m gap between its 2 m war-driving antennas and the 10 m regulatory
// reference height.
func MobileAntennaCorrectionDB(hmM float64) float64 {
	if hmM <= 0 {
		return 0
	}
	l := math.Log10(11.5 * hmM)
	return 3.2*l*l - 4.97
}

// AntennaHeightGapCorrectionDB is the constant the paper adds uniformly to
// all RSS readings when compensating for antenna height: a(10 m − 2 m) per
// §2.1 ("This yields a 7.5 dB correction factor").
func AntennaHeightGapCorrectionDB() float64 {
	return MobileAntennaCorrectionDB(8)
}

// PathLossDB implements PathLossModel.
func (h HataUrban) PathLossDB(distM, fMHz, hTxM, hRxM float64) float64 {
	dKM := math.Max(distM/1000, 0.01)
	hb := clamp(hTxM, 30, 300)
	hm := clamp(hRxM, 1, 10)
	f := clamp(fMHz, 150, 1500)

	var aHm float64
	if h.LargeCity {
		aHm = MobileAntennaCorrectionDB(hm)
	} else {
		lf := math.Log10(f)
		aHm = (1.1*lf-0.7)*hm - (1.56*lf - 0.8)
	}
	return 69.55 + 26.16*math.Log10(f) - 13.82*math.Log10(hb) - aHm +
		(44.9-6.55*math.Log10(hb))*math.Log10(dKM)
}

// FCCCurves approximates the behaviour of the FCC R-6602 propagation curves
// that certified spectrum databases must use (paper §1): it wraps a base
// model and biases it optimistically (less predicted loss), which inflates
// predicted protected contours and produces the over-protection errors the
// paper reports (up to 71% of locations, ref [52]).
type FCCCurves struct {
	// Base is the underlying median model; nil means HataUrban{LargeCity: true}.
	Base PathLossModel
	// OptimismDB is subtracted from the base model's loss; the default of
	// 6 dB reproduces database over-protection in the paper's range.
	OptimismDB float64
}

// Name implements PathLossModel.
func (FCCCurves) Name() string { return "fcc-r6602-style" }

// PathLossDB implements PathLossModel.
func (f FCCCurves) PathLossDB(distM, fMHz, hTxM, hRxM float64) float64 {
	base := f.Base
	if base == nil {
		base = HataUrban{LargeCity: true}
	}
	opt := f.OptimismDB
	if opt == 0 {
		opt = 6
	}
	return base.PathLossDB(distM, fMHz, hTxM, hRxM) - opt
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
