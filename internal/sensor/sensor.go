// Package sensor models the three radios of the paper's measurement study —
// the $15 RTL-SDR dongle, the $686 USRP B200, and the FieldFox spectrum
// analyzer used as ground truth — as imperfect front ends observing the
// same physical field.
//
// Each device is characterized by the mechanisms that, in the paper's data,
// separate the sensors' detection behaviour:
//
//   - noise floor: the effective input-referred floor within the capture
//     bandwidth (−102 dBm RTL-SDR, −103 dBm USRP, −114 dBm analyzer; the
//     paper quotes −98/−103/−114 dBm CW sensitivities, §2.2). Near the
//     −84 dBm decodability threshold the floor adds power and biases weak
//     readings upward, which inflates not-safe labels (part of the
//     low-cost sensors' misdetection of white space).
//   - gain jitter: per-reading gain instability. The USRP's readings show
//     visibly more spread than the RTL-SDR's (Fig. 5), which is what makes
//     it occasionally under-read a truly decodable signal (false alarms in
//     the safety sense).
//   - adjacent-channel leakage: limited dynamic range (the RTL-SDR has an
//     8-bit ADC) lets a fraction of the strongest co-located TV signal leak
//     into the measured channel. With in-town megawatt stations present on
//     channels 27/39, rare leakage excursions cross −84 dBm and poison the
//     6 km protection disk around them.
//   - tuner frequency error: shifts the pilot off the capture center,
//     degrading the central-bin (CFT) feature more than the band-average
//     (AFT) feature.
package sensor

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/wsdetect/waldo/internal/iq"
)

// Kind enumerates the modelled devices.
type Kind int

// Device kinds. Enums start at 1 so the zero value is invalid.
const (
	KindRTLSDR Kind = iota + 1
	KindUSRPB200
	KindSpectrumAnalyzer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRTLSDR:
		return "rtl-sdr"
	case KindUSRPB200:
		return "usrp-b200"
	case KindSpectrumAnalyzer:
		return "spectrum-analyzer"
	default:
		return fmt.Sprintf("sensor.Kind(%d)", int(k))
	}
}

// Spec is the full front-end characterization of a device model.
type Spec struct {
	// Kind identifies the device model.
	Kind Kind
	// CostUSD is the unit cost, for the cost analysis in reports.
	CostUSD float64
	// NoiseFloorDBm is the input-referred noise power within the capture
	// bandwidth.
	NoiseFloorDBm float64
	// GainJitterDB is the standard deviation of per-reading gain error.
	GainJitterDB float64
	// FrontEndGainDB maps input dBm to the device's raw (uncalibrated)
	// reading scale, as in Fig. 5 where raw readings are offset from
	// input levels.
	FrontEndGainDB float64
	// LeakRejectionDB is the rejection of the strongest co-located
	// out-of-channel signal (dynamic range); leakage power is
	// strongest − rejection + N(0, LeakSigmaDB).
	LeakRejectionDB float64
	// LeakSigmaDB is the spread of the leakage level between readings
	// (frequency-dependent images, AGC state).
	LeakSigmaDB float64
	// TunerOffsetSigmaBins is the std-dev of the pilot's offset from the
	// capture center, in FFT bins.
	TunerOffsetSigmaBins float64
	// ImpulseProb adds, with this probability, an impulsive broadband
	// interference burst of mean ImpulseMeanDB (exponential) above the
	// noise floor — front-end overload events. Zero disables.
	ImpulseProb   float64
	ImpulseMeanDB float64
	// DropoutProb under-reads a capture with this probability by an
	// exponential amount of mean DropoutDepthDB — AGC mis-settling and
	// transient desense. This is what makes a sensor occasionally miss a
	// genuinely decodable signal (false alarms in the safety sense, the
	// USRP's 5.2% in §2.2). Zero disables.
	DropoutProb    float64
	DropoutDepthDB float64
}

// RTLSDR returns the specification of the low-end sensor: the paper's $15
// dongle — very stable readings, poor dynamic range (8-bit ADC), modest
// sensitivity, occasional urban impulse pickup and AGC dropouts.
func RTLSDR() Spec {
	return Spec{
		Kind:                 KindRTLSDR,
		CostUSD:              15,
		NoiseFloorDBm:        -102,
		GainJitterDB:         0.08,
		FrontEndGainDB:       53,
		LeakRejectionDB:      64,
		LeakSigmaDB:          5,
		TunerOffsetSigmaBins: 2.0,
		ImpulseProb:          0.0005,
		ImpulseMeanDB:        12,
		DropoutProb:          0.002,
		DropoutDepthDB:       8,
	}
}

// USRPB200 returns the specification of the high-end low-cost sensor
// (paper: $686, detects down to ≈−103 dBm, visibly noisier readings).
func USRPB200() Spec {
	return Spec{
		Kind:                 KindUSRPB200,
		CostUSD:              686,
		NoiseFloorDBm:        -103,
		GainJitterDB:         0.7,
		FrontEndGainDB:       21,
		LeakRejectionDB:      72,
		LeakSigmaDB:          5,
		TunerOffsetSigmaBins: 0.5,
		DropoutProb:          0.08,
		DropoutDepthDB:       12,
	}
}

// SpectrumAnalyzer returns the specification of the FieldFox-class
// reference instrument (paper: $10–40K, −114 dBm sensing floor, used as
// ground truth).
func SpectrumAnalyzer() Spec {
	return Spec{
		Kind:                 KindSpectrumAnalyzer,
		CostUSD:              25000,
		NoiseFloorDBm:        -114,
		GainJitterDB:         0.02,
		FrontEndGainDB:       0,
		LeakRejectionDB:      110,
		LeakSigmaDB:          1,
		TunerOffsetSigmaBins: 0,
	}
}

// SpecFor returns the spec for a device kind.
func SpecFor(k Kind) (Spec, error) {
	switch k {
	case KindRTLSDR:
		return RTLSDR(), nil
	case KindUSRPB200:
		return USRPB200(), nil
	case KindSpectrumAnalyzer:
		return SpectrumAnalyzer(), nil
	default:
		return Spec{}, fmt.Errorf("sensor: unknown kind %d", int(k))
	}
}

// Observation is one raw capture from a device.
type Observation struct {
	// IQ holds the capture samples in the device's raw amplitude units
	// (input-referred sqrt(mW) scaled by front-end gain).
	IQ []complex128
	// RawDB is the energy-detector output over IQ, in raw dB units.
	RawDB float64
}

// Device is an instance of a sensor model. Observe and ObserveWired only
// read the spec and calibration, so concurrent captures are safe provided
// each call supplies its own *rand.Rand and no goroutine calls
// SetCalibration concurrently.
type Device struct {
	spec Spec
	cal  Calibration
}

// NewDevice returns an uncalibrated device of the given spec.
func NewDevice(spec Spec) *Device { return &Device{spec: spec, cal: IdentityCalibration()} }

// Calibration returns the device's current calibration.
func (d *Device) Calibration() Calibration { return d.cal }

// SetCalibration installs a calibration (e.g. one shared across devices of
// the same model, as the paper does to demonstrate calibration robustness).
func (d *Device) SetCalibration(c Calibration) { d.cal = c }

// fieldComponents converts the scene into input-referred capture powers.
func (d *Device) fieldComponents(rng *rand.Rand, signalDBm, strongestOtherDBm float64) (pilotMW, bodyMW, noiseMW float64) {
	// Fraction of ATSC channel power landing in the capture bandwidth
	// besides the pilot: (capture BW / 6 MHz) of the noise-like body.
	const bodyFrac = iq.DefaultBandwidthHz / 6e6
	pilotShare := math.Pow(10, -iq.PilotBelowChannelDB/10)

	sigMW := 0.0
	if !math.IsInf(signalDBm, -1) {
		sigMW = iq.DBmToMW(signalDBm)
	}
	pilotMW = sigMW * pilotShare
	bodyMW = sigMW * (1 - pilotShare) * bodyFrac

	noiseMW = iq.DBmToMW(d.spec.NoiseFloorDBm)

	// Adjacent-channel leakage of the strongest co-located signal.
	if !math.IsInf(strongestOtherDBm, -1) && d.spec.LeakRejectionDB > 0 {
		leakDBm := strongestOtherDBm - d.spec.LeakRejectionDB + rng.NormFloat64()*d.spec.LeakSigmaDB
		bodyMW += iq.DBmToMW(leakDBm)
	}

	// Impulsive overload events.
	if d.spec.ImpulseProb > 0 && rng.Float64() < d.spec.ImpulseProb {
		burst := d.spec.NoiseFloorDBm + rng.ExpFloat64()*d.spec.ImpulseMeanDB
		bodyMW += iq.DBmToMW(burst)
	}
	return pilotMW, bodyMW, noiseMW
}

// Observe captures the channel once. signalDBm is the true received TV
// power on the measured channel; strongestOtherDBm is the strongest true
// power on any other co-located channel (drives leakage); math.Inf(-1)
// means absent for either.
func (d *Device) Observe(rng *rand.Rand, signalDBm, strongestOtherDBm float64) (Observation, error) {
	pilotMW, bodyMW, noiseMW := d.fieldComponents(rng, signalDBm, strongestOtherDBm)

	offset := 0.0
	if d.spec.TunerOffsetSigmaBins > 0 {
		offset = rng.NormFloat64() * d.spec.TunerOffsetSigmaBins
	}
	samples, err := iq.Synthesize(rng, iq.CaptureConfig{
		PilotMW:         pilotMW,
		BodyMW:          bodyMW,
		NoiseMW:         noiseMW,
		PilotOffsetBins: offset,
	})
	if err != nil {
		return Observation{}, fmt.Errorf("sensor %s: %w", d.spec.Kind, err)
	}

	// Front-end gain with per-reading jitter and occasional AGC dropout,
	// applied in amplitude.
	gainDB := d.spec.FrontEndGainDB + rng.NormFloat64()*d.spec.GainJitterDB
	if d.spec.DropoutProb > 0 && rng.Float64() < d.spec.DropoutProb {
		gainDB -= rng.ExpFloat64() * d.spec.DropoutDepthDB
	}
	scale := complex(math.Pow(10, gainDB/20), 0)
	for i := range samples {
		samples[i] *= scale
	}

	return Observation{
		IQ:    samples,
		RawDB: iq.MWToDBm(iq.EnergyMW(samples)),
	}, nil
}

// ObserveWired captures a signal-generator CW tone injected directly into
// the front end (no TV body, no leakage): the calibration path of §2.1.
// toneDBm may be math.Inf(-1) for a terminated input (no-signal runs of
// Fig. 5).
func (d *Device) ObserveWired(rng *rand.Rand, toneDBm float64) (Observation, error) {
	toneMW := 0.0
	if !math.IsInf(toneDBm, -1) {
		toneMW = iq.DBmToMW(toneDBm)
	}
	samples, err := iq.Synthesize(rng, iq.CaptureConfig{
		PilotMW: toneMW,
		NoiseMW: iq.DBmToMW(d.spec.NoiseFloorDBm),
	})
	if err != nil {
		return Observation{}, fmt.Errorf("sensor %s: %w", d.spec.Kind, err)
	}
	gainDB := d.spec.FrontEndGainDB + rng.NormFloat64()*d.spec.GainJitterDB
	scale := complex(math.Pow(10, gainDB/20), 0)
	for i := range samples {
		samples[i] *= scale
	}
	return Observation{
		IQ:    samples,
		RawDB: iq.MWToDBm(iq.EnergyMW(samples)),
	}, nil
}
