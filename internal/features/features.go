// Package features turns raw sensor captures into the classifier inputs
// Waldo uses: the received signal strength (RSS), the central DFT bin
// (CFT), and the average of the central 15 % of DFT bins (AFT) — the three
// signal features the paper selects by ANOVA (§3.2) — combined with
// location coordinates.
package features

import (
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/iq"
	"github.com/wsdetect/waldo/internal/sensor"
)

// CenterBandFrac is the fraction of DFT bins averaged by the AFT feature
// (paper §3.2: "the average of the central 15% of the DFT bins").
const CenterBandFrac = 0.15

// Signal holds the three signal features of one reading, calibrated to
// input-referred dB quantities.
type Signal struct {
	// RSSdBm is the calibrated energy-detector output plus the capture
	// correction, an estimate of total channel power.
	RSSdBm float64
	// CFTdB is the calibrated power of the central DFT bin (pilot
	// region). Narrow integration gives it ~24 dB of processing gain at
	// N=256, so it responds to pilots far below the RSS noise floor.
	CFTdB float64
	// AFTdB is the calibrated mean power of the central 15 % of bins —
	// less processing gain than CFT but robust to tuner frequency error.
	AFTdB float64
}

// FromObservation extracts the signal features from a raw capture using
// the device's calibration, over the rectangular analysis window of the
// paper's configuration.
func FromObservation(obs sensor.Observation, cal sensor.Calibration) (Signal, error) {
	return measure(obs, cal, SetLocationRSSCFTAFT)
}

// Measure extracts only the features s reads: RSS always (the α stop
// reads it) and CFT when s reads it, from one pass that adds up the DC
// bin beside the energy; AFT, the one that needs the transform, only for
// SetLocationRSSCFTAFT. The others are −Inf dBm, which no upload accepts.
// Measured features are bit-identical to FromObservation's.
func (s Set) Measure(obs sensor.Observation, cal sensor.Calibration) (Signal, error) {
	if !s.Valid() {
		return Signal{}, fmt.Errorf("features: invalid set %d", int(s))
	}
	return measure(obs, cal, s)
}

func measure(obs sensor.Observation, cal sensor.Calibration, s Set) (Signal, error) {
	if len(obs.IQ) == 0 {
		return Signal{}, fmt.Errorf("features: empty capture")
	}
	width := 0 // no band
	if s >= SetLocationRSSCFTAFT {
		width = iq.CenterBandBins(len(obs.IQ), CenterBandFrac)
	}
	energy, center, band, err := dsp.PilotBand(obs.IQ, width)
	if err != nil {
		return Signal{}, fmt.Errorf("features: %w", err)
	}
	sig := Signal{
		RSSdBm: cal.Apply(iq.MWToDBm(energy)) + iq.CaptureCorrectionDB(),
		CFTdB:  math.Inf(-1),
		AFTdB:  math.Inf(-1),
	}
	if s >= SetLocationRSSCFT {
		sig.CFTdB = cal.Apply(iq.MWToDBm(center))
	}
	if width > 0 {
		sig.AFTdB = cal.Apply(iq.MWToDBm(band))
	}
	return sig, nil
}

// Set selects which features feed the classifier. The paper counts
// "number of features" with location as the first: 1 = location only, then
// RSS, CFT, and AFT are added in that order (Fig. 12b/c).
type Set int

// Feature sets in the paper's addition order.
const (
	SetLocation Set = iota + 1
	SetLocationRSS
	SetLocationRSSCFT
	SetLocationRSSCFTAFT
)

// AllSets lists the sets in paper order, for sweeps over "number of
// features".
var AllSets = []Set{SetLocation, SetLocationRSS, SetLocationRSSCFT, SetLocationRSSCFTAFT}

// Count returns the paper's "number of features" for the set.
func (s Set) Count() int { return int(s) }

// Dim returns the classifier input dimensionality (location contributes
// two coordinates).
func (s Set) Dim() int { return int(s) + 1 }

// MaxDim is the largest Dim of any set: what a fixed-size buffer for
// AppendVector has to hold.
const MaxDim = int(SetLocationRSSCFTAFT) + 1

// Valid reports whether s is a defined set.
func (s Set) Valid() bool { return s >= SetLocation && s <= SetLocationRSSCFTAFT }

// String implements fmt.Stringer.
func (s Set) String() string {
	switch s {
	case SetLocation:
		return "location"
	case SetLocationRSS:
		return "location+RSS"
	case SetLocationRSSCFT:
		return "location+RSS+CFT"
	case SetLocationRSSCFTAFT:
		return "location+RSS+CFT+AFT"
	default:
		return fmt.Sprintf("features.Set(%d)", int(s))
	}
}

// Vector builds the classifier input for a reading at planar position xy
// (meters; scaled to kilometers internally so raw magnitudes are
// comparable with the dB features before standardization).
func (s Set) Vector(xy geo.XY, sig Signal) ([]float64, error) {
	if !s.Valid() { // before Dim sizes the allocation
		return nil, fmt.Errorf("features: invalid set %d", int(s))
	}
	return s.AppendVector(make([]float64, 0, s.Dim()), xy, sig)
}

// AppendVector appends the classifier input Vector would build to dst
// and returns the extended slice: with Dim values of spare capacity in
// dst it allocates nothing, which is how the Model Constructor fills one
// row of its feature matrix per reading.
func (s Set) AppendVector(dst []float64, xy geo.XY, sig Signal) ([]float64, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("features: invalid set %d", int(s))
	}
	dst = append(dst, xy.X/1000, xy.Y/1000)
	if s >= SetLocationRSS {
		dst = append(dst, sig.RSSdBm)
	}
	if s >= SetLocationRSSCFT {
		dst = append(dst, sig.CFTdB)
	}
	if s >= SetLocationRSSCFTAFT {
		dst = append(dst, sig.AFTdB)
	}
	return dst, nil
}

// Score is an ANOVA discriminability score for one feature.
type Score struct {
	Name   string
	F      float64
	PValue float64
}

// ScoreANOVA computes per-feature one-way ANOVA F statistics and p-values
// between the two occupancy classes, reproducing the paper's feature
// selection analysis (features with P ≈ 0 on all channels were kept).
func ScoreANOVA(safe, notSafe []Signal) []Score {
	extract := func(sigs []Signal, f func(Signal) float64) []float64 {
		out := make([]float64, len(sigs))
		for i, s := range sigs {
			out[i] = f(s)
		}
		return out
	}
	type field struct {
		name string
		fn   func(Signal) float64
	}
	fields := []field{
		{"RSS", func(s Signal) float64 { return s.RSSdBm }},
		{"CFT", func(s Signal) float64 { return s.CFTdB }},
		{"AFT", func(s Signal) float64 { return s.AFTdB }},
	}
	scores := make([]Score, 0, len(fields))
	for _, fl := range fields {
		f, p := dsp.OneWayANOVA(extract(safe, fl.fn), extract(notSafe, fl.fn))
		scores = append(scores, Score{Name: fl.name, F: f, PValue: p})
	}
	return scores
}
