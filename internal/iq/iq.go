// Package iq synthesizes complex-baseband I/Q captures of ATSC TV channels
// as seen by a narrowband sensor tuned to the pilot frequency, and provides
// the energy-detection primitives that turn captures into power readings.
//
// The paper's sensors record 256 I/Q samples per reading from a capture
// centered on the digital TV pilot carrier (§2.1): the pilot is a CW tone
// required to sit 11.3 dB below the total channel power, and measuring the
// narrowband around it (then adding 12 dB) recovers channel power with a
// much lower noise floor than wideband 6 MHz integration. This package
// reproduces that capture: pilot tone + in-band signal body + sensor noise
// floor, with a small random pilot frequency offset modelling tuner drift.
package iq

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/wsdetect/waldo/internal/dsp"
)

// Standard capture geometry used across the system.
const (
	// DefaultSamples is the number of I/Q samples per reading (paper §2.1).
	DefaultSamples = 256
	// DefaultBandwidthHz is the capture bandwidth around the pilot.
	DefaultBandwidthHz = 250e3
	// PilotBelowChannelDB is how far the ATSC pilot sits below total
	// channel power (FCC requirement cited in §2.1).
	PilotBelowChannelDB = 11.3
)

// PilotShare is the linear fraction of channel power in the pilot tone.
func PilotShare() float64 { return math.Pow(10, -PilotBelowChannelDB/10) }

// BodyCaptureFrac is the fraction of the non-pilot channel body that falls
// inside the capture bandwidth.
func BodyCaptureFrac() float64 { return DefaultBandwidthHz / 6e6 }

// CaptureCorrectionDB is the exact correction that recovers total channel
// power from full-capture energy under this package's capture geometry:
// the capture holds the pilot plus the in-band slice of the signal body, so
// channel = capture − 10·log10(pilotShare + (1−pilotShare)·bodyFrac)
// ≈ +9.5 dB. It plays the role of the paper's +12 dB pilot correction
// (§2.1), which assumes a pilot-only narrowband measurement.
func CaptureCorrectionDB() float64 { return captureCorrectionDB }

// captureCorrectionDB is a constant of the capture geometry, evaluated
// once: feature extraction adds it to every capture's RSS.
var captureCorrectionDB = func() float64 {
	ps := PilotShare()
	return -10 * math.Log10(ps+(1-ps)*BodyCaptureFrac())
}()

// DBmToMW converts dBm to linear milliwatts.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MWToDBm converts linear milliwatts to dBm. Zero or negative power maps to
// -inf dBm.
func MWToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// CaptureConfig describes one synthetic capture.
type CaptureConfig struct {
	// Samples is the capture length; 0 means DefaultSamples. Must be a
	// power of two.
	Samples int
	// PilotMW is the input-referred pilot tone power in mW (0 = absent).
	PilotMW float64
	// BodyMW is the input-referred power of the signal body falling in
	// the capture bandwidth, modelled as complex white noise.
	BodyMW float64
	// NoiseMW is the sensor noise-floor power within the capture
	// bandwidth (input-referred).
	NoiseMW float64
	// PilotOffsetBins shifts the pilot away from the capture center by a
	// fractional number of FFT bins, modelling tuner frequency error.
	PilotOffsetBins float64
}

// Synthesize renders a capture. The returned samples are input-referred
// (units of sqrt(mW)); front-end gain is applied by the sensor layer.
func Synthesize(rng *rand.Rand, cfg CaptureConfig) ([]complex128, error) {
	n := cfg.Samples
	if n == 0 {
		n = DefaultSamples
	}
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("iq: capture length %d is not a power of two", n)
	}
	if cfg.PilotMW < 0 || cfg.BodyMW < 0 || cfg.NoiseMW < 0 {
		return nil, fmt.Errorf("iq: negative component power (pilot=%v body=%v noise=%v)",
			cfg.PilotMW, cfg.BodyMW, cfg.NoiseMW)
	}

	out := make([]complex128, n)

	// Pilot: CW tone at a small offset from the capture center. The
	// center of an FFT-shifted spectrum is bin n/2, which corresponds to
	// normalized frequency 0.5; we synthesize relative to DC and let the
	// feature extractor shift.
	if cfg.PilotMW > 0 {
		amp := math.Sqrt(cfg.PilotMW)
		phase := rng.Float64() * 2 * math.Pi
		freq := cfg.PilotOffsetBins / float64(n) // cycles per sample
		for i := range out {
			ang := phase + 2*math.Pi*freq*float64(i)
			out[i] += complex(amp*math.Cos(ang), amp*math.Sin(ang))
		}
	}

	// Body + noise: independent circular complex Gaussians. For a
	// complex Gaussian with per-sample power P, each of I and Q has
	// variance P/2.
	if tot := cfg.BodyMW + cfg.NoiseMW; tot > 0 {
		sigma := math.Sqrt(tot / 2)
		for i := range out {
			out[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		}
	}
	return out, nil
}

// EnergyMW returns the mean per-sample power of a capture (the classic
// energy detector).
func EnergyMW(samples []complex128) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		re, im := real(s), imag(s)
		sum += re*re + im*im
	}
	return sum / float64(len(samples))
}

// Spectrum holds the FFT-shifted power spectrum of a capture, with the
// capture center (pilot region) at the middle bin. Feature extraction
// reads its three features through dsp.PilotBand without building one;
// Spectrum is the full-spectrum reference that kernel is tested against,
// and what plots and analyses of whole captures use.
type Spectrum struct {
	Bins []float64 // power per bin, mW
}

// NewSpectrum computes the shifted power spectrum of a capture.
func NewSpectrum(samples []complex128) (*Spectrum, error) {
	bins := make([]float64, len(samples))
	if err := dsp.PowerSpectrumInto(bins, samples); err != nil {
		return nil, err
	}
	// The FFT length is a power of two, so the DC-to-center shift is an
	// in-place half swap (one allocation fewer than dsp.FFTShift).
	half := len(bins) / 2
	for i := 0; i < half; i++ {
		bins[i], bins[i+half] = bins[i+half], bins[i]
	}
	return &Spectrum{Bins: bins}, nil
}

// CenterBinMW returns the power of the central DFT bin — the paper's CFT
// feature source. A single bin integrates 1/N of the capture noise, giving
// ~10·log10(N) dB of processing gain over wideband energy detection for CW
// pilots.
func (s *Spectrum) CenterBinMW() float64 {
	if len(s.Bins) == 0 {
		return 0
	}
	return s.Bins[len(s.Bins)/2]
}

// CenterBandMeanMW returns the mean power of the central frac (0–1] of the
// bins — the paper's AFT feature source uses frac = 0.15.
func (s *Spectrum) CenterBandMeanMW(frac float64) float64 {
	n := len(s.Bins)
	w := CenterBandBins(n, frac)
	if w == 0 {
		return 0
	}
	lo := n/2 - w/2
	var sum float64
	for _, v := range s.Bins[lo : lo+w] {
		sum += v
	}
	return sum / float64(w)
}

// CenterBandBins returns how many bins the central frac (0–1] of an n-bin
// spectrum spans: n·frac rounded, at least one. The band is shifted bins
// [n/2−w/2, n/2−w/2+w), which always lies inside the spectrum. It is 0
// for an empty spectrum or a non-positive frac.
func CenterBandBins(n int, frac float64) int {
	if n == 0 || frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	w := int(math.Round(float64(n) * frac))
	if w < 1 {
		w = 1
	}
	return w
}

// TotalMW returns the total power across all bins, which by Parseval's
// theorem equals the time-domain EnergyMW up to floating-point error.
func (s *Spectrum) TotalMW() float64 {
	var sum float64
	for _, v := range s.Bins {
		sum += v
	}
	return sum
}
