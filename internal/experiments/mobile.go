package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// mobileModels trains one model per channel from the RTL-SDR campaign
// data, as downloaded by the Android prototype.
func (s *Suite) mobileModels(kind core.ClassifierKind) (map[rfenv.Channel]*core.Model, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	models := make(map[rfenv.Channel]*core.Model, len(camp.Channels))
	for _, ch := range camp.Channels {
		readings := camp.Readings(ch, sensor.KindRTLSDR)
		labels, err := s.Labels(ch, sensor.KindRTLSDR, 0)
		if err != nil {
			return nil, err
		}
		m, err := core.BuildModel(readings, labels, core.ConstructorConfig{
			ClusterK:   3,
			Classifier: kind,
			Features:   features.SetLocationRSSCFT,
			Seed:       s.cfg.Seed + 600,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: mobile model %v: %w", ch, err)
		}
		models[ch] = m
	}
	return models, nil
}

// Fig17Result reproduces Fig. 17 and the §5 responsiveness analysis: the
// CDF of the air time the detector needs to decide — by reaching a 90 %
// CI span below α, or by stopping early where both §5 fallback points
// already agree (paper: mean 0.19 s stationary to convergence, flat in
// α; mobile runs often fail to converge). A channel whose model calls the
// place's locality occupied whatever the signal is decided on no capture;
// those attempts are counted in ZeroCaptureFrac and left out of every
// decision time, which would otherwise read 0 s. What the decisions cost
// in safety is scored against an oracle (see OracleScore).
type Fig17Result struct {
	// Stationary is the CDF of decision air time (seconds) over the
	// stationary attempts that decided on at least one capture.
	Stationary *dsp.ECDF
	// StationaryConvergedFrac is the fraction of stationary attempts
	// that met α; the rest of those in Stationary stopped early.
	StationaryConvergedFrac float64
	// ZeroCaptureFrac is the fraction of attempts decided NotSafe on no
	// capture. It depends only on the place and channel, so it is the
	// same stationary and mobile.
	ZeroCaptureFrac float64
	// ByAlpha maps α (dB) to mean stationary decision seconds, over
	// attempts that took captures.
	ByAlpha map[float64]float64
	// MobileConvergedFrac is the fraction of mobile attempts that
	// converged at all (paper: large share do not).
	MobileConvergedFrac float64
	// MobileDecidedFrac is the fraction of mobile attempts that decided
	// before the cap, converged or stopped early.
	MobileDecidedFrac float64
	// MobileMinSeconds is the fastest mobile decision that took captures
	// (paper: 0.3 s to convergence).
	MobileMinSeconds float64
	// ScanSeconds and MobileScanSeconds are the mean air time of one
	// measured 9-channel metro scan (WSD.Scan) at the Fig. 17 places,
	// stationary and at 15 m/s (paper: 5.89 s for 30 channels vs the 2 s
	// IEEE 802.22 requirement).
	ScanSeconds       float64
	MobileScanSeconds float64
	// ScoredPlaces campaign route points, drawn by an RNG of their own,
	// are each scanned ScoredScans times stationary (Scored) and at
	// 15 m/s (MobileScored) and the decisions scored against the oracle.
	ScoredPlaces, ScoredScans int
	Scored, MobileScored      OracleScore
}

// OracleScore tallies scan decisions against the oracle: Algorithm 1
// over the simulator's noise-free power at the place a scan starts.
type OracleScore struct {
	// Occupied counts decisions the oracle calls NotSafe; FalseSafe
	// those of them decided Safe.
	Occupied, FalseSafe int
	// Vacant counts decisions the oracle calls Safe; Found those of them
	// decided Safe, the white space the device finds.
	Vacant, Found int
}

// FoundShare is the share of the oracle's white space decided Safe.
func (o OracleScore) FoundShare() float64 {
	if o.Vacant == 0 {
		return 0
	}
	return float64(o.Found) / float64(o.Vacant)
}

func (o *OracleScore) add(truth dataset.Label, dec core.Decision) {
	safe := dec.Label == dataset.LabelSafe
	if truth == dataset.LabelNotSafe {
		o.Occupied++
		if safe {
			o.FalseSafe++
		}
		return
	}
	o.Vacant++
	if safe {
		o.Found++
	}
}

// oracle labels the campaign's route points on ch by Algorithm 1 over
// the simulator's noise-free power. The rule's −84 dBm and 6 km are
// written here rather than taken from dataset.LabelConfig's defaults, so
// a change to the served labeler cannot move the truth.
func oracle(camp *wardrive.Campaign, ch rfenv.Channel) ([]dataset.Label, error) {
	return oracleAt(camp, ch, nil)
}

// oracleAt is oracle's truth at extra points: the labels of the route
// points, then of each extra point (never hot itself).
func oracleAt(camp *wardrive.Campaign, ch rfenv.Channel, extra []geo.Point) ([]dataset.Label, error) {
	route := camp.Readings(ch, sensor.KindRTLSDR)
	if len(route) != len(camp.Route.Points) {
		return nil, fmt.Errorf("experiments: %d readings on %v for %d route points", len(route), ch, len(camp.Route.Points))
	}
	ideal := make([]dataset.Reading, len(route), len(route)+len(extra))
	copy(ideal, route)
	for i := range ideal {
		ideal[i].Signal.RSSdBm = ideal[i].TrueDBm
	}
	for _, p := range extra {
		ideal = append(ideal, dataset.Reading{Loc: p, Channel: ch, Signal: features.Signal{RSSdBm: math.Inf(-1)}})
	}
	return dataset.LabelReadings(ideal, dataset.LabelConfig{ThresholdDBm: -84, ProtectRadiusM: 6000})
}

// decided reports whether a scan ended in a decision before the cap: α
// convergence, or the detector's early stop.
func decided(cs client.ChannelScan) bool {
	return cs.Decision.Converged || cs.Decision.StoppedEarly
}

// Fig17Convergence runs stationary and mobile detection attempts across
// the metro and measures decision air time.
func (s *Suite) Fig17Convergence() (*Fig17Result, error) {
	env, err := s.Env()
	if err != nil {
		return nil, err
	}
	models, err := s.mobileModels(core.KindSVM)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed + 601))
	dev := sensor.NewDevice(sensor.RTLSDR())
	if err := sensor.CalibrateAndInstall(dev, rng, sensor.CalibrationConfig{}); err != nil {
		return nil, err
	}

	// device returns trial's WSD and the place it senses at.
	device := func(speed float64, alpha float64, trial int) (*client.WSD, geo.Point) {
		loc := rfenv.MetroCenter.Offset(float64(trial*29%360), 1000+float64(trial*631%11000))
		return fig17WSD(env, dev, models, rng, loc, speed, float64(trial*37)+10, alpha), loc
	}
	attempt := func(speed float64, alpha float64, trial int) (client.ChannelScan, error) {
		wsd, loc := device(speed, alpha, trial)
		return wsd.SenseChannel(rfenv.EvalChannels[trial%len(rfenv.EvalChannels)], loc)
	}

	const trials = 120
	res := &Fig17Result{ByAlpha: make(map[float64]float64)}
	var stationary []float64
	converged, skipped := 0, 0
	for trial := 0; trial < trials; trial++ {
		cs, err := attempt(0, 0.5, trial)
		if err != nil {
			return nil, err
		}
		if cs.AirTime == 0 {
			skipped++
		} else if decided(cs) {
			stationary = append(stationary, cs.AirTime.Seconds())
		}
		if cs.Decision.Converged {
			converged++
		}
	}
	res.Stationary = dsp.NewECDF(stationary)
	res.StationaryConvergedFrac = float64(converged) / float64(trials)
	res.ZeroCaptureFrac = float64(skipped) / float64(trials)

	for _, alpha := range []float64{0.5, 1, 2, 5} {
		var sum float64
		n := 0
		for trial := 0; trial < 40; trial++ {
			cs, err := attempt(0, alpha, trial)
			if err != nil {
				return nil, err
			}
			if cs.AirTime > 0 && decided(cs) {
				sum += cs.AirTime.Seconds()
				n++
			}
		}
		if n > 0 {
			res.ByAlpha[alpha] = sum / float64(n)
		}
	}

	res.MobileMinSeconds = 1e9
	converged = 0
	done := 0
	for trial := 0; trial < trials; trial++ {
		cs, err := attempt(15, 0.5, trial)
		if err != nil {
			return nil, err
		}
		if cs.Decision.Converged {
			converged++
		}
		if decided(cs) {
			done++
			if sec := cs.AirTime.Seconds(); sec > 0 && sec < res.MobileMinSeconds {
				res.MobileMinSeconds = sec
			}
		}
	}
	res.MobileConvergedFrac = float64(converged) / float64(trials)
	res.MobileDecidedFrac = float64(done) / float64(trials)

	meanScan := func(speed float64) (float64, error) {
		var sum time.Duration
		for trial := 0; trial < trials; trial++ {
			wsd, loc := device(speed, 0.5, trial)
			scan, err := wsd.Scan(loc)
			if err != nil {
				return 0, err
			}
			sum += scan.AirTime
		}
		return sum.Seconds() / trials, nil
	}
	if res.ScanSeconds, err = meanScan(0); err != nil {
		return nil, err
	}
	if res.MobileScanSeconds, err = meanScan(15); err != nil {
		return nil, err
	}
	if err := s.scoreScans(res, models, dev); err != nil {
		return nil, err
	}
	return res, nil
}

// fig17WSD is the device Fig. 17 times and scores: its radio at loc,
// moving at speed (m/s) along heading and drawing captures from rng, its
// detectors at alpha, every stream capped at 128 captures.
func fig17WSD(env *rfenv.Environment, dev *sensor.Device, models map[rfenv.Channel]*core.Model,
	rng *rand.Rand, loc geo.Point, speed, heading, alpha float64) *client.WSD {
	radio := &client.SimRadio{Env: env, Device: dev, Rng: rng, SpeedMPS: speed, HeadingDeg: heading}
	radio.SetPosition(loc)
	return &client.WSD{
		Radio:                 radio,
		Models:                models,
		Detector:              core.DetectorConfig{AlphaDB: alpha, MaxReadings: 128},
		MaxReadingsPerChannel: 128,
	}
}

// scoreScans fills res's oracle scores. The places, headings and capture
// seeds come from an RNG the captures do not draw from, and each channel
// of each scan draws its captures from a seed of its own, as a WSD.Scan
// senses the channels in order: a detector that takes more or fewer
// captures on one stream is scored at the same places, on the same
// captures in every other stream, and on a prefix of the same captures
// in its own. Two detectors' scores therefore differ only by the streams
// they decide differently.
func (s *Suite) scoreScans(res *Fig17Result, models map[rfenv.Channel]*core.Model, dev *sensor.Device) error {
	camp, err := s.Campaign()
	if err != nil {
		return err
	}
	truth := make(map[rfenv.Channel][]dataset.Label, len(models))
	chs := make([]rfenv.Channel, 0, len(models))
	for ch := range models {
		if truth[ch], err = oracle(camp, ch); err != nil {
			return err
		}
		chs = append(chs, ch)
	}
	slices.Sort(chs)
	res.ScoredPlaces, res.ScoredScans = 400, 3
	places := rand.New(rand.NewSource(s.cfg.Seed + 602))
	for p := 0; p < res.ScoredPlaces; p++ {
		pi := places.Intn(len(camp.Route.Points))
		heading := places.Float64() * 360
		seed := places.Int63()
		loc := camp.Route.Points[pi]
		for _, speed := range []float64{0, 15} {
			score := &res.Scored
			if speed > 0 {
				score = &res.MobileScored
			}
			for scan := 0; scan < res.ScoredScans; scan++ {
				wsd := fig17WSD(camp.Env, dev, models, nil, loc, speed, heading, 0.5)
				radio := wsd.Radio.(*client.SimRadio)
				for ci, ch := range chs {
					radio.Rng = rand.New(rand.NewSource(seed + int64(scan*len(chs)+ci)))
					cs, err := wsd.SenseChannel(ch, loc)
					if err != nil {
						return err
					}
					score.add(truth[ch][pi], cs.Decision)
				}
			}
		}
	}
	return nil
}

// Render implements the experiment report.
func (r *Fig17Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 17: detector decision time (90% CI span < α, or an early stop), over decisions that took captures\n")
	fmt.Fprintf(&b, "decided NotSafe on no capture (the model's locality at the place is a constant NotSafe one): %.0f%% of attempts\n",
		r.ZeroCaptureFrac*100)
	fmt.Fprintf(&b, "stationary: mean=%.3f s, %s, %.0f%% of all attempts converged (paper mean to convergence: 0.19 s)\n",
		r.Stationary.Mean(), r.Stationary.RenderQuantiles("s"), r.StationaryConvergedFrac*100)
	b.WriteString("mean decision time by α (paper: flat for stationary devices):\n")
	for _, alpha := range []float64{0.5, 1, 2, 5} {
		if v, ok := r.ByAlpha[alpha]; ok {
			fmt.Fprintf(&b, "  α=%.1f dB: %.3f s\n", alpha, v)
		}
	}
	fmt.Fprintf(&b, "mobile (15 m/s): converged %.0f%% of attempts, decided before the cap %.0f%%, min %.2f s (paper: min 0.3 s, many non-convergent)\n",
		r.MobileConvergedFrac*100, r.MobileDecidedFrac*100, r.MobileMinSeconds)
	fmt.Fprintf(&b, "9-channel metro scan, measured: %.2f s stationary, %.2f s at 15 m/s (paper: 5.89 s for 30 channels vs 2 s IEEE 802.22 budget)\n",
		r.ScanSeconds, r.MobileScanSeconds)
	fmt.Fprintf(&b, "against Algorithm 1 over noise-free power, %d places × %d scans:\n", r.ScoredPlaces, r.ScoredScans)
	for _, row := range []struct {
		name  string
		score OracleScore
	}{{"stationary", r.Scored}, {"15 m/s", r.MobileScored}} {
		fmt.Fprintf(&b, "  %s: false-safe %d of %d occupied, white space found %.1f%% of %d\n",
			row.name, row.score.FalseSafe, row.score.Occupied, row.score.FoundShare()*100, row.score.Vacant)
	}
	return b.String()
}

// Fig18Result reproduces Fig. 18 and the §5 CPU analysis: the CDF of the
// Waldo app's processing share during active scans, and the average
// utilization normalized over the 60 s duty cycle (paper: 2.35 %).
type Fig18Result struct {
	// PeakPct is the CDF of per-scan peak CPU share (processing over
	// wall time of the active scan window).
	PeakPct *dsp.ECDF
	// NormalizedPct is the mean utilization across the 60 s duty cycle.
	NormalizedPct float64
	// ScanCPUSeconds is the mean measured processing time per full scan.
	ScanCPUSeconds float64
	// DownloadBytesNB and DownloadBytesSVM are the per-channel model
	// download sizes (§5: ≈4 kB NB vs ≈40 kB SVM with OpenCV
	// serialization; this codec is denser but keeps the ordering).
	DownloadBytesNB  int
	DownloadBytesSVM int
}

// Fig18CPUOverhead measures real processing time of the detection
// pipeline over repeated duty cycles.
func (s *Suite) Fig18CPUOverhead() (*Fig18Result, error) {
	env, err := s.Env()
	if err != nil {
		return nil, err
	}
	svmModels, err := s.mobileModels(core.KindSVM)
	if err != nil {
		return nil, err
	}
	nbModels, err := s.mobileModels(core.KindNB)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed + 602))
	dev := sensor.NewDevice(sensor.RTLSDR())
	if err := sensor.CalibrateAndInstall(dev, rng, sensor.CalibrationConfig{}); err != nil {
		return nil, err
	}

	res := &Fig18Result{}
	var peaks []float64
	var cpuSum float64
	const cycles = 25
	for cycle := 0; cycle < cycles; cycle++ {
		radio := &client.SimRadio{Env: env, Device: dev, Rng: rng}
		loc := rfenv.MetroCenter.Offset(float64(cycle*53%360), 500+float64(cycle*911%12000))
		radio.SetPosition(loc)
		wsd := &client.WSD{
			Radio:    radio,
			Models:   svmModels,
			Detector: core.DetectorConfig{AlphaDB: 0.5, MaxReadings: 128},
		}
		scan, err := wsd.Scan(loc)
		if err != nil {
			return nil, err
		}
		active := scan.AirTime + scan.CPUTime
		if active > 0 {
			peaks = append(peaks, 100*float64(scan.CPUTime)/float64(active))
		}
		cpuSum += scan.CPUTime.Seconds()
	}
	res.PeakPct = dsp.NewECDF(peaks)
	res.ScanCPUSeconds = cpuSum / cycles
	res.NormalizedPct = 100 * res.ScanCPUSeconds / (60 * time.Second).Seconds()

	// Model download sizes (§5).
	var anyCh rfenv.Channel = rfenv.EvalChannels[0]
	if res.DownloadBytesSVM, err = core.EncodedSize(svmModels[anyCh]); err != nil {
		return nil, err
	}
	if res.DownloadBytesNB, err = core.EncodedSize(nbModels[anyCh]); err != nil {
		return nil, err
	}
	return res, nil
}

// Render implements the experiment report.
func (r *Fig18Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 18 / §5: WSD processing overhead\n")
	fmt.Fprintf(&b, "peak CPU share during active scan: %s\n", r.PeakPct.RenderQuantiles("%"))
	fmt.Fprintf(&b, "mean scan processing: %.3g ms → %.3g%% of the 60 s duty cycle (paper: 2.35%%)\n",
		1e3*r.ScanCPUSeconds, r.NormalizedPct)
	fmt.Fprintf(&b, "model download: NB %d B, SVM %d B per channel (paper: ≈4 kB vs ≈40 kB; ordering preserved)\n",
		r.DownloadBytesNB, r.DownloadBytesSVM)
	return b.String()
}

// --- §5 model size table ---

// Sec5Result measures descriptor sizes per classifier family.
type Sec5Result struct {
	// Bytes maps classifier kind to the per-channel descriptor size.
	Bytes map[core.ClassifierKind]int
}

// Sec5ModelSize encodes one trained model per family.
func (s *Suite) Sec5ModelSize() (*Sec5Result, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	const ch = rfenv.Channel(47)
	readings := camp.Readings(ch, sensor.KindRTLSDR)
	labels, err := s.Labels(ch, sensor.KindRTLSDR, 0)
	if err != nil {
		return nil, err
	}
	// The exact-SVM model trains on a subsample to keep SMO fast; its
	// descriptor grows with support vectors, which is the point.
	sub := readings
	subL := labels
	if len(sub) > 1200 {
		sub = sub[:1200]
		subL = subL[:1200]
	}

	res := &Sec5Result{Bytes: make(map[core.ClassifierKind]int)}
	for _, kind := range []core.ClassifierKind{core.KindNB, core.KindSVM, core.KindSVMExact, core.KindLinearSVM} {
		rs, ls := readings, labels
		if kind == core.KindSVMExact {
			rs, ls = sub, subL
		}
		m, err := core.BuildModel(rs, ls, core.ConstructorConfig{
			ClusterK:   3,
			Classifier: kind,
			Features:   features.SetLocationRSSCFT,
			Seed:       s.cfg.Seed + 603,
		})
		if err != nil {
			return nil, fmt.Errorf("sec5 %v: %w", kind, err)
		}
		size, err := core.EncodedSize(m)
		if err != nil {
			return nil, err
		}
		res.Bytes[kind] = size
	}
	return res, nil
}

// Render implements the experiment report.
func (r *Sec5Result) Render() string {
	var b strings.Builder
	b.WriteString("§5: model descriptor sizes (k=3, location+RSS+CFT)\n")
	b.WriteString("(paper: ≈4 kB NB vs ≈40 kB SVM with OpenCV text serialization)\n")
	for _, kind := range []core.ClassifierKind{core.KindNB, core.KindLinearSVM, core.KindSVM, core.KindSVMExact} {
		fmt.Fprintf(&b, "  %-12v %7d bytes\n", kind, r.Bytes[kind])
	}
	return b.String()
}

// --- Table 2: qualitative comparison ---

// Table2Result renders the qualitative comparison of detection approaches,
// grounded in the quantitative results of the other experiments.
type Table2Result struct {
	// SensingFNRate is the sensing-only detector's efficiency loss on
	// the campaign (everything at the RTL floor trips the −114 rule).
	SensingFNRate float64
}

// Table2Qualitative computes the quantitative anchors for Table 2.
func (s *Suite) Table2Qualitative() (*Table2Result, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	// Sensing-only on the RTL-SDR: classify each reading by the −114 dBm
	// rule and compare to ground truth.
	var fn, safe int
	for _, ch := range rfenv.EvalChannels {
		truth, err := s.GroundTruth(ch, 0)
		if err != nil {
			return nil, err
		}
		readings := camp.Readings(ch, sensor.KindRTLSDR)
		for i := range readings {
			if truth[i] != dataset.LabelSafe {
				continue
			}
			safe++
			if readings[i].Signal.RSSdBm >= core.SensingThresholdDBm {
				fn++
			}
		}
	}
	res := &Table2Result{}
	if safe > 0 {
		res.SensingFNRate = float64(fn) / float64(safe)
	}
	return res, nil
}

// Render implements the experiment report.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: qualitative comparison of white-space detection approaches\n")
	fmt.Fprintf(&b, "%-26s %-22s %-11s %-11s %-10s\n", "approach", "information source", "safety", "efficiency", "overhead")
	fmt.Fprintf(&b, "%-26s %-22s %-11s %-11s %-10s\n", "spectrum sensing", "local information", "very high", "moderate", "high")
	fmt.Fprintf(&b, "%-26s %-22s %-11s %-11s %-10s\n", "spectrum databases", "universal models", "very high", "low", "moderate")
	fmt.Fprintf(&b, "%-26s %-22s %-11s %-11s %-10s\n", "measurement-augmented DB", "local models", "high", "high", "moderate")
	fmt.Fprintf(&b, "%-26s %-22s %-11s %-11s %-10s\n", "Waldo", "local info + models", "high", "very high", "low")
	fmt.Fprintf(&b, "quantitative anchor: sensing-only at −114 dBm on the RTL-SDR forfeits %.1f%% of true white space\n",
		r.SensingFNRate*100)
	return b.String()
}
