package client

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Radio abstracts the sensing hardware attached to a WSD: each Capture
// consumes air time and returns one raw I/Q observation. Feature
// extraction (FFT, energy detection) belongs to the WSD's processing
// budget, as in the paper's Android architecture (§5: the app sends I/Q
// samples for feature extraction and classification).
type Radio interface {
	// Capture senses one channel at the device's current position.
	Capture(ch rfenv.Channel) (sensor.Observation, error)
	// Calibration returns the device calibration used to interpret
	// captures.
	Calibration() sensor.Calibration
	// DwellTime is the air time one capture consumes.
	DwellTime() time.Duration
}

// SimRadio is an RTL-SDR-class radio in a simulated environment, the
// stand-in for the paper's Android+RTL-SDR rig (§5). When the device moves
// between captures, small-scale (multipath) fading decorrelates — at UHF
// the wavelength is ~0.5 m — adding per-capture level swings that are
// exactly what keeps mobile detections from converging in the paper.
type SimRadio struct {
	// Env is the RF world; required.
	Env *rfenv.Environment
	// Device is the attached sensor; required (calibrate it first).
	Device *sensor.Device
	// Dwell is the per-capture air time; 0 means 20 ms (USB transfer +
	// buffering of the Android RTL-SDR driver).
	Dwell time.Duration
	// SpeedMPS is the device ground speed; 0 = stationary.
	SpeedMPS float64
	// HeadingDeg is the direction of travel.
	HeadingDeg float64
	// FadingSigmaDB is the small-scale fading spread applied per capture
	// while moving; 0 means 4 dB.
	FadingSigmaDB float64
	// Rng drives measurement noise; required.
	Rng *rand.Rand

	pos     geo.Point
	started bool
}

var _ Radio = (*SimRadio)(nil)

// SetPosition places the device.
func (r *SimRadio) SetPosition(p geo.Point) {
	r.pos = p
	r.started = true
}

// Position returns the device location.
func (r *SimRadio) Position() geo.Point { return r.pos }

// DwellTime implements Radio.
func (r *SimRadio) DwellTime() time.Duration {
	if r.Dwell == 0 {
		return 20 * time.Millisecond
	}
	return r.Dwell
}

// Capture implements Radio.
func (r *SimRadio) Capture(ch rfenv.Channel) (sensor.Observation, error) {
	if r.Env == nil || r.Device == nil || r.Rng == nil {
		return sensor.Observation{}, fmt.Errorf("client: SimRadio missing env/device/rng")
	}
	if !r.started {
		return sensor.Observation{}, fmt.Errorf("client: SimRadio position not set")
	}
	// Advance the device along its heading for the dwell duration.
	if r.SpeedMPS > 0 {
		r.pos = r.pos.Offset(r.HeadingDeg, r.SpeedMPS*r.DwellTime().Seconds())
	}
	truth := r.Env.RSSDBm(ch, r.pos)
	if r.SpeedMPS > 0 && !math.IsInf(truth, -1) {
		sigma := r.FadingSigmaDB
		if sigma == 0 {
			sigma = 4
		}
		truth += r.Rng.NormFloat64() * sigma
	}
	return r.Device.Observe(r.Rng, truth, r.Env.StrongestDBm(r.pos, ch))
}

// Calibration implements Radio.
func (r *SimRadio) Calibration() sensor.Calibration {
	if r.Device == nil {
		return sensor.IdentityCalibration()
	}
	return r.Device.Calibration()
}

// ChannelScan is the outcome of sensing one channel on the mobile WSD.
type ChannelScan struct {
	// Channel is the TV channel this scan sensed.
	Channel rfenv.Channel
	// Decision is the detector's output.
	Decision core.Decision
	// AirTime is the radio time consumed (readings × dwell): the
	// "convergence time" of Fig. 17.
	AirTime time.Duration
	// CPUTime is the measured processing time (detector + classifier).
	CPUTime time.Duration
}

// ScanResult aggregates one duty cycle (the §5 prototype repeats a full
// scan every 60 s).
type ScanResult struct {
	// Channels holds one ChannelScan per channel sensed this cycle.
	Channels []ChannelScan
	// AirTime and CPUTime are totals across channels.
	AirTime time.Duration
	// CPUTime is the summed processing time across channels.
	CPUTime time.Duration
}

// WSD is the mobile white-space device: radio + per-channel models +
// detector configuration. It is not safe for concurrent use.
type WSD struct {
	// Radio is the sensing hardware; required.
	Radio Radio
	// Models maps channel → detection model; required.
	Models map[rfenv.Channel]*core.Model
	// Detector configures the §3.3 pipeline.
	Detector core.DetectorConfig
	// MaxReadingsPerChannel caps a channel's sensing effort; 0 means the
	// detector's MaxReadings.
	MaxReadingsPerChannel int

	// dets keeps each channel's detector, with the stream storage it has
	// grown, from one scan to the next; detCfg is the configuration they
	// were built from.
	dets   map[rfenv.Channel]*core.Detector
	detCfg core.DetectorConfig
}

// detector returns ch's detector with an empty stream: the one the last
// scan used, or a new one when the channel's model or the detector
// configuration has changed since.
func (w *WSD) detector(ch rfenv.Channel, model *core.Model) (*core.Detector, error) {
	if w.Detector != w.detCfg {
		w.dets, w.detCfg = nil, w.Detector
	}
	if det := w.dets[ch]; det != nil && det.Model() == model {
		det.Reset()
		return det, nil
	}
	det, err := core.NewDetector(model, w.Detector)
	if err != nil {
		return nil, err
	}
	if w.dets == nil {
		w.dets = make(map[rfenv.Channel]*core.Detector)
	}
	w.dets[ch] = det
	return det, nil
}

// SenseChannel runs the detection loop for one channel at loc: capture →
// offer → converged? → decide.
func (w *WSD) SenseChannel(ch rfenv.Channel, loc geo.Point) (ChannelScan, error) {
	model, ok := w.Models[ch]
	if !ok {
		return ChannelScan{}, fmt.Errorf("client: no model for %v", ch)
	}
	det, err := w.detector(ch, model)
	if err != nil {
		return ChannelScan{}, err
	}
	// Captures past the detector's cap would be extracted and dropped.
	maxN := det.MaxReadings()
	if w.MaxReadingsPerChannel > 0 && w.MaxReadingsPerChannel < maxN {
		maxN = w.MaxReadingsPerChannel
	}

	// Feature extraction (FFT + energy detection), detector bookkeeping
	// and the decision are the WSD's processing cost (Fig. 18); the
	// radio's capture time is not. The clock is read once at each
	// hand-over between the two, as an offset from one base, and the
	// stamp that closes the last Offer opens Decide.
	base := time.Now()
	var cpu, mark time.Duration // mark: when processing last took over
	captures := 0
	cal := w.Radio.Calibration()
	for captures < maxN {
		obs, err := w.Radio.Capture(ch)
		if err != nil {
			return ChannelScan{}, fmt.Errorf("client: capture %v: %w", ch, err)
		}
		captures++
		mark = time.Since(base)
		sig, err := features.FromObservation(obs, cal)
		if err != nil {
			return ChannelScan{}, fmt.Errorf("client: extract %v: %w", ch, err)
		}
		done := det.Offer(sig)
		now := time.Since(base)
		cpu += now - mark
		mark = now
		if done {
			break
		}
	}
	dec, err := det.Decide(loc)
	cpu += time.Since(base) - mark
	if err != nil {
		return ChannelScan{}, fmt.Errorf("client: decide %v: %w", ch, err)
	}
	return ChannelScan{
		Channel:  ch,
		Decision: dec,
		AirTime:  time.Duration(captures) * w.Radio.DwellTime(),
		CPUTime:  cpu,
	}, nil
}

// Scan senses every modelled channel once (one duty cycle).
func (w *WSD) Scan(loc geo.Point) (ScanResult, error) {
	var res ScanResult
	chs := make([]rfenv.Channel, 0, len(w.Models))
	for ch := range w.Models {
		chs = append(chs, ch)
	}
	// Deterministic order.
	for i := 1; i < len(chs); i++ {
		for j := i; j > 0 && chs[j] < chs[j-1]; j-- {
			chs[j], chs[j-1] = chs[j-1], chs[j]
		}
	}
	res.Channels = make([]ChannelScan, 0, len(chs))
	for _, ch := range chs {
		cs, err := w.SenseChannel(ch, loc)
		if err != nil {
			return ScanResult{}, err
		}
		res.Channels = append(res.Channels, cs)
		res.AirTime += cs.AirTime
		res.CPUTime += cs.CPUTime
	}
	return res, nil
}
