package core

import (
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
)

// The §3.3 pipeline's fixed parameters: a stream converges on no fewer
// than minReadings captures, when the confidence-level CI of its
// outlier-trimmed RSS spans at most α; the aggregate smooths each
// feature over smoothingWindow captures and keeps the outlierLoPct–
// outlierHiPct percentile band, whose ends are also the §5 fallback's
// two points.
const (
	confidence      = 0.90
	smoothingWindow = 8
	outlierLoPct    = 5
	outlierHiPct    = 95
	minReadings     = 8
)

// earlyStopReadings is n0, the shortest stream on which a detector whose
// decisions cannot be uploaded may stop before minReadings because both
// points of the §5 fallback already classify alike, NotSafe or Safe: it
// answers what the fallback answers there. At 2 every metro decision
// would stop NotSafe and all white space would be lost; at 3 the
// false-NotSafe share stays where full sampling has it. A Safe stop asks
// more of the stream (see settled and stopsEarly), and what it costs in
// false-safe is measured against Fig. 17's oracle in internal/experiments.
// A place whose locality is a constant NotSafe one needs no n0: it stops
// at any length, 0 included (see At). A Safe stop always rests on n0
// captures.
const earlyStopReadings = 3

// DetectorConfig parameterizes the White Space Detector (§3.3).
type DetectorConfig struct {
	// AlphaDB is the sensitivity parameter α: the maximum span of the
	// 90 % confidence interval of the smoothed RSS before a decision is
	// allowed. The paper sweeps 0.5–5 dB; default 0.5.
	AlphaDB float64
	// MaxReadings caps the stream (a mobile device that never converges
	// must eventually give up); default 1024, and at least 8, the
	// shortest stream that can converge.
	MaxReadings int
	// Features is the set the detector aggregates and a device measures
	// (Set.Measure); 0 means the model's, and one that does not cover it
	// is refused. Features outside it read −Inf dBm in Decision.Signal,
	// which UploadBatch.Validate refuses: a device whose decisions are
	// uploaded sets features.SetLocationRSSCFTAFT.
	Features features.Set
}

func (c *DetectorConfig) defaults() error {
	if c.AlphaDB == 0 {
		c.AlphaDB = 0.5
	}
	if c.AlphaDB < 0 {
		return fmt.Errorf("core: negative alpha %v", c.AlphaDB)
	}
	if c.MaxReadings == 0 {
		c.MaxReadings = 1024
	}
	if c.MaxReadings < minReadings {
		return fmt.Errorf("core: max readings %d below %d", c.MaxReadings, minReadings)
	}
	return nil
}

// Decision is the outcome of a detection attempt.
type Decision struct {
	// Label is the predicted availability.
	Label dataset.Label
	// Converged reports whether the α criterion was met. When it was
	// not, the label is the conservative NOR rule of §5: the stream
	// stopped early (StoppedEarly), or it ended — at MaxReadings or
	// wherever the caller stopped offering — without meeting α.
	Converged bool
	// StoppedEarly reports that the early stop rule ended the stream
	// before minReadings (see At): both §5 fallback points at the place
	// given to At classified alike (a Safe pair on a settled stream
	// only), or the model's locality there is a constant NotSafe one.
	// Converged is then false, and at that place the label is the stop's
	// verdict (NotSafe on a constant NotSafe locality), answered without
	// classifying again.
	StoppedEarly bool
	// ReadingsUsed is the stream length consumed: 0 when the stream
	// stopped early before its first capture, on a constant NotSafe
	// locality.
	ReadingsUsed int
	// CISpanDB is the final confidence-interval span of smoothed RSS,
	// +Inf on fewer than two readings.
	CISpanDB float64
	// Signal is the aggregated (smoothed, outlier-trimmed) feature
	// vector the classification used; −Inf in every feature when no
	// reading was taken. UploadBatch.Validate refuses either infinity.
	Signal features.Signal
}

// Detector consumes a stream of noisy captures at one location and emits a
// classification once the stream is statistically stable. It is not safe
// for concurrent use.
type Detector struct {
	model *Model
	cfg   DetectorConfig

	rss []float64
	cft []float64
	aft []float64

	// ws is the trim/smooth scratch every capture reuses. span is the CI
	// span of the outlier-trimmed RSS at stream length spanLen: Offer and
	// Decide ask for it at the same length, and the trim behind it is the
	// detector's dearest step.
	ws      dsp.Workspace
	span    float64
	spanLen int
	// sig is the aggregate at stream length sigLen (> 0): the early stop
	// rule and Decide ask for it at the same length.
	sig    features.Signal
	sigLen int

	// loc is the place the stream is captured at, set by At; placed
	// reports that it is, and occupied that the model's locality at loc
	// is a constant NotSafe one. stoppedLen is the stream length at
	// which the stream last stopped early, 0 if it has not, stoppedAt the
	// place that stop was judged at and stopped its verdict: there and at
	// that length both §5 fallback points classify as stopped.
	loc        geo.Point
	placed     bool
	occupied   bool
	stoppedLen int
	stoppedAt  geo.Point
	stopped    dataset.Label
}

// NewDetector builds a detector over a trained model.
func NewDetector(model *Model, cfg DetectorConfig) (*Detector, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Features == 0 {
		cfg.Features = model.Features
	}
	if !cfg.Features.Valid() || cfg.Features < model.Features {
		return nil, fmt.Errorf("core: detector features %v do not cover the model's %v", cfg.Features, model.Features)
	}
	return &Detector{model: model, cfg: cfg}, nil
}

// Reset clears the stream (e.g. after the device moves), keeping its
// storage.
func (d *Detector) Reset() {
	d.rss = d.rss[:0]
	d.cft = d.cft[:0]
	d.aft = d.aft[:0]
	d.spanLen, d.sigLen = 0, 0
	d.placed, d.occupied = false, false
	d.stoppedLen = 0
}

// At sets the place the stream is captured at, until the next Reset. It
// lets a detector that does not aggregate AFT (its decisions are never
// uploadable) stop a stream before minReadings: from earlyStopReadings
// captures on once both §5 fallback points there classify alike, with
// their verdict (Safe asks more, see stopsEarly), and with NotSafe at
// any length, 0 included, when the model's locality at loc is a constant
// NotSafe one, where Classify answers NotSafe whatever the signal. Done
// is then true before the first capture, and Decide answers with none. A
// detector with no place, or one that aggregates the full set, samples
// to α convergence.
func (d *Detector) At(loc geo.Point) {
	label, constant := d.model.constantAt(loc)
	d.loc, d.placed, d.occupied = loc, true, constant && label == dataset.LabelNotSafe
}

// Model returns the model the detector classifies with.
func (d *Detector) Model() *Model { return d.model }

// MaxReadings returns the stream cap in effect (the configured value, or
// the default): readings offered beyond it are dropped.
func (d *Detector) MaxReadings() int { return d.cfg.MaxReadings }

// Features returns the feature set the detector aggregates: the set a
// capture offered to it has to measure.
func (d *Detector) Features() features.Set { return d.cfg.Features }

// Len returns the current stream length.
func (d *Detector) Len() int { return len(d.rss) }

// Offer appends one capture's features (those in Features) and reports
// whether the stream is done (see Done).
func (d *Detector) Offer(sig features.Signal) bool {
	if len(d.rss) < d.cfg.MaxReadings {
		d.rss = append(d.rss, sig.RSSdBm)
		if d.cfg.Features >= features.SetLocationRSSCFT {
			d.cft = append(d.cft, sig.CFTdB)
		}
		if d.cfg.Features >= features.SetLocationRSSCFTAFT {
			d.aft = append(d.aft, sig.AFTdB)
		}
	}
	return d.Done()
}

// Done reports whether the stream is done at its current length: it has
// converged (90 % CI span of smoothed RSS below α), or it stopped early
// (see At). A device asks before its first capture, as a placed detector
// on a constant NotSafe locality is done with none.
func (d *Detector) Done() bool {
	if d.converged() {
		return true
	}
	if label, ok := d.stopsEarly(); ok {
		d.stoppedLen, d.stoppedAt, d.stopped = len(d.rss), d.loc, label
		return true
	}
	return false
}

// stopsEarly reports whether the early stop rule ends the stream at its
// current length, and with which verdict: the detector is placed, cannot
// upload (no AFT), holds fewer than minReadings captures, and either its
// place's locality is a constant NotSafe one (NotSafe) or, from
// earlyStopReadings captures on, both §5 fallback points classify alike
// (their label, which is the fallback's answer). Both Safe stops the
// stream only if it is settled and a third point, the high one with CFT
// at its own high percentile too, is Safe: three captures average CFT
// over fewer captures than α convergence ever does, and without that
// point false-safe rose against Fig. 17's oracle on stationary streams.
// A classification error leaves the stream running; Decide reports it.
func (d *Detector) stopsEarly() (dataset.Label, bool) {
	n := len(d.rss)
	if !d.placed || d.cfg.Features >= features.SetLocationRSSCFTAFT || n >= minReadings {
		return 0, false
	}
	if d.occupied {
		return dataset.LabelNotSafe, true
	}
	if n < earlyStopReadings {
		return 0, false
	}
	sig := d.aggregate()
	lo, err := d.fallback(d.loc, sig, outlierLoPct)
	if err != nil || lo == dataset.LabelSafe && !d.settled() {
		return 0, false
	}
	hi, err := d.fallback(d.loc, sig, outlierHiPct)
	if err != nil || hi != lo {
		return 0, false
	}
	if lo == dataset.LabelSafe && len(d.cft) > 0 {
		sig.CFTdB = d.ws.Percentile(d.cft, outlierHiPct)
		if hi, err = d.fallback(d.loc, sig, outlierHiPct); err != nil || hi != lo {
			return 0, false
		}
	}
	return lo, true
}

// settled reports whether the stream's spread would meet α at
// minReadings: its CI span scaled from its length to minReadings
// captures. A Safe stop needs it. A moving device's fading spreads its
// captures by several dB, and three of them understate the spread that
// sampling on to the cap finds; without this test false-safe rose
// against the oracle at 15 m/s.
func (d *Detector) settled() bool {
	return d.ciSpan()*math.Sqrt(float64(len(d.rss))/float64(minReadings)) <= d.cfg.AlphaDB
}

// ciSpan returns the current CI span of the outlier-trimmed raw RSS. The
// CI is deliberately computed on raw (not smoothed) readings: a moving
// average autocorrelates the series and makes its sample variance
// underestimate the true uncertainty, which would declare convergence on
// streams that are still drifting (the mobile fading case of §5).
func (d *Detector) ciSpan() float64 {
	if d.spanLen != len(d.rss) {
		trimmed := d.ws.TrimOutliers(d.rss, outlierLoPct, outlierHiPct)
		d.span = dsp.MeanCI(trimmed, confidence).Span()
		d.spanLen = len(d.rss)
	}
	return d.span
}

func (d *Detector) converged() bool {
	if len(d.rss) < minReadings {
		return false
	}
	return d.ciSpan() <= d.cfg.AlphaDB
}

// aggregate produces the robust feature estimate used for classification,
// −Inf for a feature outside Features (its stream is empty).
func (d *Detector) aggregate() features.Signal {
	if n := len(d.rss); n > 0 && n == d.sigLen {
		return d.sig
	}
	robust := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.Inf(-1)
		}
		smoothed := d.ws.MovingAverage(xs, smoothingWindow)
		trimmed := d.ws.TrimOutliers(smoothed, outlierLoPct, outlierHiPct)
		return dsp.Mean(trimmed)
	}
	d.sig = features.Signal{
		RSSdBm: robust(d.rss),
		CFTdB:  robust(d.cft),
		AFTdB:  robust(d.aft),
	}
	d.sigLen = len(d.rss)
	return d.sig
}

// Decide classifies with the aggregated features at loc. If the stream has
// not converged, the paper's §5 fallback applies: classify at the 5th and
// 95th RSS percentiles and NOR the decisions, favouring NotSafe. A stream
// that stopped early at its current length (see At) and is decided at the
// place that stop was judged at takes the stop's verdict without a
// classification: the fallback there is the stop's. At any other place
// it is classified. An empty stream is an error, unless the early stop
// rule ends it: the decision is then NotSafe, stopped early on no reading.
func (d *Detector) Decide(loc geo.Point) (Decision, error) {
	if len(d.rss) == 0 {
		label, ok := d.stopsEarly()
		if !ok {
			return Decision{}, fmt.Errorf("core: no readings offered")
		}
		return Decision{
			Label:        label,
			StoppedEarly: true,
			CISpanDB:     math.Inf(1),
			Signal:       d.aggregate(),
		}, nil
	}
	dec := Decision{
		Converged:    d.converged(),
		StoppedEarly: d.stoppedLen == len(d.rss),
		ReadingsUsed: len(d.rss),
		CISpanDB:     d.ciSpan(),
		Signal:       d.aggregate(),
	}
	if dec.Converged {
		label, err := d.model.Classify(loc, dec.Signal)
		if err != nil {
			return Decision{}, err
		}
		dec.Label = label
		return dec, nil
	}

	// A stream that stopped early here and at this length has had its
	// fallback answered: both points alike, or a locality where Classify
	// answers nothing but NotSafe.
	if dec.StoppedEarly && loc == d.stoppedAt {
		dec.Label = d.stopped
		return dec, nil
	}
	// Non-converged fallback: only if BOTH extremes say Safe is the
	// channel declared Safe.
	lo, err := d.fallback(loc, dec.Signal, outlierLoPct)
	if err != nil {
		return Decision{}, err
	}
	hi, err := d.fallback(loc, dec.Signal, outlierHiPct)
	if err != nil {
		return Decision{}, err
	}
	if lo == dataset.LabelSafe && hi == dataset.LabelSafe {
		dec.Label = dataset.LabelSafe
	} else {
		dec.Label = dataset.LabelNotSafe
	}
	return dec, nil
}

// fallback classifies one of the §5 fallback's points at loc: sig with
// the RSS replaced by the stream's pct-th percentile (the outlier band's
// low or high end). Decide and the early stop rule both classify
// through it, so they cannot drift.
func (d *Detector) fallback(loc geo.Point, sig features.Signal, pct float64) (dataset.Label, error) {
	sig.RSSdBm = d.ws.Percentile(d.rss, pct)
	return d.model.Classify(loc, sig)
}
