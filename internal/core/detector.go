package core

import (
	"fmt"
	"strconv"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// DetectorConfig parameterizes the White Space Detector (§3.3).
type DetectorConfig struct {
	// AlphaDB is the sensitivity parameter α: the maximum span of the
	// 90 % confidence interval of the smoothed RSS before a decision is
	// allowed. The paper sweeps 0.5–5 dB; default 0.5.
	AlphaDB float64
	// Confidence is the CI level; default 0.90.
	Confidence float64
	// SmoothingWindow is the moving-average window; default 8.
	SmoothingWindow int
	// OutlierLoPct and OutlierHiPct bound the percentile band kept
	// before averaging; defaults 5 and 95.
	OutlierLoPct float64
	OutlierHiPct float64
	// MinReadings is the minimum stream length before convergence can be
	// declared; default 8.
	MinReadings int
	// MaxReadings caps the stream (a mobile device that never converges
	// must eventually give up); default 1024.
	MaxReadings int
	// Metrics, when set, receives detector telemetry: decision counts by
	// label/convergence, α-convergence stream lengths, and outliers
	// rejected by the percentile trim.
	Metrics *telemetry.Registry
}

func (c *DetectorConfig) defaults() error {
	if c.AlphaDB == 0 {
		c.AlphaDB = 0.5
	}
	if c.AlphaDB < 0 {
		return fmt.Errorf("core: negative alpha %v", c.AlphaDB)
	}
	if c.Confidence == 0 {
		c.Confidence = 0.90
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("core: confidence %v outside (0,1)", c.Confidence)
	}
	if c.SmoothingWindow == 0 {
		c.SmoothingWindow = 8
	}
	if c.SmoothingWindow < 1 {
		return fmt.Errorf("core: smoothing window %d", c.SmoothingWindow)
	}
	if c.OutlierLoPct == 0 {
		c.OutlierLoPct = 5
	}
	if c.OutlierHiPct == 0 {
		c.OutlierHiPct = 95
	}
	if c.OutlierLoPct < 0 || c.OutlierHiPct > 100 || c.OutlierLoPct >= c.OutlierHiPct {
		return fmt.Errorf("core: bad outlier band [%v, %v]", c.OutlierLoPct, c.OutlierHiPct)
	}
	if c.MinReadings == 0 {
		c.MinReadings = 8
	}
	if c.MaxReadings == 0 {
		c.MaxReadings = 1024
	}
	if c.MinReadings < 2 || c.MaxReadings < c.MinReadings {
		return fmt.Errorf("core: bad reading bounds [%d, %d]", c.MinReadings, c.MaxReadings)
	}
	return nil
}

// Decision is the outcome of a detection attempt.
type Decision struct {
	// Label is the predicted availability.
	Label dataset.Label
	// Converged reports whether the α criterion was met (false means
	// the stream hit MaxReadings and the decision fell back to the
	// conservative NOR rule of §5).
	Converged bool
	// ReadingsUsed is the stream length consumed.
	ReadingsUsed int
	// CISpanDB is the final confidence-interval span of smoothed RSS.
	CISpanDB float64
	// Signal is the aggregated (smoothed, outlier-trimmed) feature
	// vector the classification used.
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

	// ws is the trim/smooth scratch every capture reuses. span and kept
	// are the CI span and surviving count of the outlier-trimmed RSS at
	// stream length spanLen: Offer and Decide ask for them at the same
	// length, and the trim behind them is the detector's dearest step.
	ws      dsp.Workspace
	span    float64
	kept    int
	spanLen int

	// Telemetry handles; nil-safe no-ops when cfg.Metrics is unset.
	readingsUsed  *telemetry.Histogram
	outliersTotal *telemetry.Counter
}

// NewDetector builds a detector over a trained model.
func NewDetector(model *Model, cfg DetectorConfig) (*Detector, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Detector{
		model: model,
		cfg:   cfg,
		readingsUsed: cfg.Metrics.Histogram("waldo_detector_readings",
			"Stream length consumed per decision (α-convergence iterations).",
			telemetry.DefCountBuckets),
		outliersTotal: cfg.Metrics.Counter("waldo_detector_outliers_rejected_total",
			"Raw readings discarded by the percentile outlier trim."),
	}, nil
}

// Reset clears the stream (e.g. after the device moves), keeping its
// storage.
func (d *Detector) Reset() {
	d.rss = d.rss[:0]
	d.cft = d.cft[:0]
	d.aft = d.aft[:0]
	d.spanLen = 0
}

// Model returns the model the detector classifies with.
func (d *Detector) Model() *Model { return d.model }

// MaxReadings returns the stream cap in effect (the configured value, or
// the default): readings offered beyond it are dropped.
func (d *Detector) MaxReadings() int { return d.cfg.MaxReadings }

// Len returns the current stream length.
func (d *Detector) Len() int { return len(d.rss) }

// Offer appends one capture's features and reports whether the stream has
// converged (90 % CI span of smoothed RSS below α).
func (d *Detector) Offer(sig features.Signal) bool {
	if len(d.rss) < d.cfg.MaxReadings {
		d.rss = append(d.rss, sig.RSSdBm)
		d.cft = append(d.cft, sig.CFTdB)
		d.aft = append(d.aft, sig.AFTdB)
	}
	return d.converged()
}

// ciSpan returns the current CI span of the outlier-trimmed raw RSS. The
// CI is deliberately computed on raw (not smoothed) readings: a moving
// average autocorrelates the series and makes its sample variance
// underestimate the true uncertainty, which would declare convergence on
// streams that are still drifting (the mobile fading case of §5).
func (d *Detector) ciSpan() float64 {
	if d.spanLen != len(d.rss) {
		trimmed := d.ws.TrimOutliers(d.rss, d.cfg.OutlierLoPct, d.cfg.OutlierHiPct)
		d.span = dsp.MeanCI(trimmed, d.cfg.Confidence).Span()
		d.kept = len(trimmed)
		d.spanLen = len(d.rss)
	}
	return d.span
}

func (d *Detector) converged() bool {
	if len(d.rss) < d.cfg.MinReadings {
		return false
	}
	return d.ciSpan() <= d.cfg.AlphaDB
}

// aggregate produces the robust feature estimate used for classification.
func (d *Detector) aggregate() features.Signal {
	robust := func(xs []float64) float64 {
		smoothed := d.ws.MovingAverage(xs, d.cfg.SmoothingWindow)
		trimmed := d.ws.TrimOutliers(smoothed, d.cfg.OutlierLoPct, d.cfg.OutlierHiPct)
		return dsp.Mean(trimmed)
	}
	return features.Signal{
		RSSdBm: robust(d.rss),
		CFTdB:  robust(d.cft),
		AFTdB:  robust(d.aft),
	}
}

// Decide classifies with the aggregated features at loc. If the stream has
// not converged, the paper's §5 fallback applies: classify at the 5th and
// 95th RSS percentiles and NOR the decisions, favouring NotSafe.
func (d *Detector) Decide(loc geo.Point) (Decision, error) {
	if len(d.rss) == 0 {
		return Decision{}, fmt.Errorf("core: no readings offered")
	}
	dec := Decision{
		Converged:    d.converged(),
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
		d.record(dec)
		return dec, nil
	}

	// Non-converged fallback: evaluate the extremes; only if BOTH say
	// Safe is the channel declared Safe.
	lo := dec.Signal
	hi := dec.Signal
	lo.RSSdBm = d.ws.Percentile(d.rss, d.cfg.OutlierLoPct)
	hi.RSSdBm = d.ws.Percentile(d.rss, d.cfg.OutlierHiPct)
	lLabel, err := d.model.Classify(loc, lo)
	if err != nil {
		return Decision{}, err
	}
	hLabel, err := d.model.Classify(loc, hi)
	if err != nil {
		return Decision{}, err
	}
	if lLabel == dataset.LabelSafe && hLabel == dataset.LabelSafe {
		dec.Label = dataset.LabelSafe
	} else {
		dec.Label = dataset.LabelNotSafe
	}
	d.record(dec)
	return dec, nil
}

// record emits per-decision telemetry. The decision counter is looked up
// here (not held) because its labels depend on the outcome; decisions are
// per-channel-scan events, far off the per-capture hot path.
func (d *Detector) record(dec Decision) {
	if d.cfg.Metrics == nil {
		return
	}
	d.readingsUsed.Observe(float64(dec.ReadingsUsed))
	if n := len(d.rss) - d.kept; n > 0 {
		d.outliersTotal.Add(uint64(n))
	}
	d.cfg.Metrics.Counter("waldo_detector_decisions_total",
		"Detection decisions by label and convergence outcome.",
		"label", dec.Label.String(),
		"converged", strconv.FormatBool(dec.Converged)).Inc()
}
