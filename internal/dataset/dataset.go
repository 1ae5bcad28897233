// Package dataset defines the measurement data model of the Waldo system:
// location-tagged, feature-extracted spectrum readings, and the FCC-derived
// labeling rule (the paper's Algorithm 1) that declares locations safe or
// not safe for white-space operation.
package dataset

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Label is the white-space availability class of a location.
type Label int8

// Labels. Safe is the positive class ("white space available"): a false
// positive (predicting Safe when NotSafe) endangers incumbents (safety), a
// false negative (predicting NotSafe when Safe) wastes spectrum
// (efficiency) — the definitions of paper §4.2.
const (
	LabelNotSafe Label = iota + 1
	LabelSafe
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case LabelNotSafe:
		return "not-safe"
	case LabelSafe:
		return "safe"
	default:
		return fmt.Sprintf("dataset.Label(%d)", int8(l))
	}
}

// Reading is one feature-extracted spectrum measurement.
type Reading struct {
	// Seq is the reading's position in the drive sequence.
	Seq int
	// Loc is the GPS-tagged location.
	Loc geo.Point
	// Channel is the measured TV channel.
	Channel rfenv.Channel
	// Sensor is the device model that produced the reading.
	Sensor sensor.Kind
	// Signal holds the calibrated RSS/CFT/AFT features.
	Signal features.Signal
	// AltM is the antenna height above ground the reading was taken at;
	// 0 means the default war-driving height (2 m). WSDs in multistory
	// buildings report their floor height here (the §6 altitude
	// extension).
	AltM float64
	// TrueDBm is the simulator's ground-truth received power, carried
	// for diagnostics only; no detection path reads it.
	TrueDBm float64
}

// DefaultAntennaHeightM is the war-driving antenna height (paper §2.1:
// antennas mounted on a minivan, ≈2 m above ground).
const DefaultAntennaHeightM = 2.0

// AntennaHeightM returns the effective antenna height of the reading.
func (r Reading) AntennaHeightM() float64 {
	if r.AltM <= 0 {
		return DefaultAntennaHeightM
	}
	return r.AltM
}

// LabelConfig parameterizes Algorithm 1.
type LabelConfig struct {
	// ThresholdDBm is the decodability threshold; the FCC protected
	// contour is defined at −84 dBm (§2.1). Zero means −84.
	ThresholdDBm float64
	// ProtectRadiusM is the extra separation required around decodable
	// locations (6 km for portable devices, §2.1). Zero means 6000.
	ProtectRadiusM float64
	// CorrectionDB is added uniformly to every RSS before thresholding —
	// the antenna height correction factor (≈7.5 dB) of §2.1. Zero means
	// no correction.
	CorrectionDB float64
	// NormalizeHeight enables the §6 altitude extension: each reading's
	// RSS is individually normalized to ReferenceHeightM using Hata's
	// mobile-antenna correction before thresholding, instead of assuming
	// every reading came from the same antenna height.
	NormalizeHeight bool
	// ReferenceHeightM is the normalization target; 0 means the
	// regulatory 10 m.
	ReferenceHeightM float64
}

func (c LabelConfig) withDefaults() LabelConfig {
	if c.ThresholdDBm == 0 {
		c.ThresholdDBm = -84
	}
	if c.ProtectRadiusM == 0 {
		c.ProtectRadiusM = 6000
	}
	if c.ReferenceHeightM == 0 {
		c.ReferenceHeightM = 10
	}
	return c
}

// effectiveRSS applies the configured height handling to one reading.
func (c LabelConfig) effectiveRSS(r *Reading) float64 {
	rss := r.Signal.RSSdBm + c.CorrectionDB
	if c.NormalizeHeight {
		rss += rfenv.MobileAntennaCorrectionDB(c.ReferenceHeightM) -
			rfenv.MobileAntennaCorrectionDB(r.AntennaHeightM())
	}
	return rss
}

// LabelReadings implements the paper's Algorithm 1: a reading is NotSafe
// if its own (corrected) RSS exceeds the threshold, or if any reading in
// the set within the protection radius does; otherwise it is Safe. The
// returned slice parallels readings. An invalid location is an error: it
// is within radius of nothing, itself included, and would come out Safe.
//
// The rule is deliberately biased toward incumbent protection: one noisy
// high reading poisons its whole protection disk, while a noisy low
// reading is overruled by its non-noisy neighbors.
func LabelReadings(readings []Reading, cfg LabelConfig) ([]Label, error) {
	cfg = cfg.withDefaults()
	labels := make([]Label, len(readings))
	if len(readings) == 0 {
		return labels, nil
	}

	// Index only the "hot" readings (above threshold): each is NotSafe
	// by its own RSS, and every other reading is NotSafe iff a hot one
	// lies within the protection radius.
	hot := make([]geo.Point, 0, len(readings))
	for i := range readings {
		if !readings[i].Loc.Valid() {
			return nil, fmt.Errorf("dataset: reading %d has invalid location %v", i, readings[i].Loc)
		}
		if cfg.effectiveRSS(&readings[i]) > cfg.ThresholdDBm {
			hot = append(hot, readings[i].Loc)
			labels[i] = LabelNotSafe
		}
	}
	// Cells of half the radius: a query covers 5×5 of them, 6.25 r²,
	// where 3×3 cells of the radius cover 9 r².
	index, err := geo.NewGridIndex(readings[0].Loc, cfg.ProtectRadiusM/2, hot)
	if err != nil {
		return nil, fmt.Errorf("dataset: label index: %w", err)
	}
	for i := range readings {
		if labels[i] == LabelNotSafe || index.AnyWithinRadius(readings[i].Loc, cfg.ProtectRadiusM) {
			labels[i] = LabelNotSafe
		} else {
			labels[i] = LabelSafe
		}
	}
	return labels, nil
}

// CountLabels returns the number of Safe and NotSafe entries.
func CountLabels(labels []Label) (safe, notSafe int) {
	for _, l := range labels {
		switch l {
		case LabelSafe:
			safe++
		case LabelNotSafe:
			notSafe++
		}
	}
	return safe, notSafe
}

// SafeFraction returns the fraction of labels that are Safe (0 for empty).
func SafeFraction(labels []Label) float64 {
	if len(labels) == 0 {
		return 0
	}
	safe, _ := CountLabels(labels)
	return float64(safe) / float64(len(labels))
}
