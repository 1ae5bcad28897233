package experiments

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/ml"
	"github.com/wsdetect/waldo/internal/ml/knn"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// The paper trained OpenCV-era SVMs on raw inputs: location in decimal
// degrees (range ≈ 0.24 over the metro) against signal features in dB
// (range ≈ 40), with the library-default RBF width (γ = 1). At that scale
// ratio the kernel has two limits:
//
//   - location-only: every pairwise distance is ≪ 1, the kernel is nearly
//     constant, and the SVM degenerates to a majority-class predictor;
//   - with signal features: the dB dimensions dominate the kernel, whose
//     ~1 dB width turns the SVM into a nearest-neighbor rule in signal
//     space (location effectively ignored).
//
// legacyCV emulates exactly those limits (majority vote / signal-space
// KNN), which is the regime where Fig. 12's dramatic 5–10× improvements
// from adding signal features arise. The normalized Waldo pipeline
// (core.BuildModel) is the repaired variant; EXPERIMENTS.md discusses the
// difference.
const legacyKNNK = 5

// legacyVector builds the unscaled input: raw degrees plus raw dB.
func legacyVector(set features.Set, r dataset.Reading) ([]float64, error) {
	if !set.Valid() {
		return nil, fmt.Errorf("experiments: invalid feature set %d", int(set))
	}
	v := make([]float64, 0, set.Dim())
	v = append(v, r.Loc.Lon, r.Loc.Lat)
	if set >= features.SetLocationRSS {
		v = append(v, r.Signal.RSSdBm)
	}
	if set >= features.SetLocationRSSCFT {
		v = append(v, r.Signal.CFTdB)
	}
	if set >= features.SetLocationRSSCFTAFT {
		v = append(v, r.Signal.AFTdB)
	}
	return v, nil
}

// legacyCV cross-validates the unscaled-SVM configuration (no
// standardization, default kernel width).
func legacyCV(readings []dataset.Reading, labels []dataset.Label, set features.Set, seed int64) (validate.Metrics, error) {
	var total validate.Metrics
	x := make([][]float64, len(readings))
	y := make([]int, len(readings))
	for i := range readings {
		v, err := legacyVector(set, readings[i])
		if err != nil {
			return total, err
		}
		x[i] = v
		y[i] = labelClass(labels[i])
	}
	splits, err := validate.Splits(len(x), cvFolds, seed)
	if err != nil {
		return total, err
	}
	for f, sp := range splits {
		m, err := legacyTrainAndTest(set, validate.Pick(x, sp.Train), validate.Pick(y, sp.Train), sp.Test, x, y)
		if err != nil {
			return total, fmt.Errorf("legacy fold %d: %w", f, err)
		}
		total.Add(m)
	}
	return total, nil
}

// legacyTrainAndTest applies the degenerate-kernel limits: majority class
// for location-only inputs, signal-space KNN otherwise.
func legacyTrainAndTest(set features.Set, trainX [][]float64, trainY []int, test []int, x [][]float64, y []int) (validate.Metrics, error) {
	var m validate.Metrics
	constLabel, isConst := validate.ConstantClass(trainY)
	if isConst || set == features.SetLocation {
		label := constLabel
		if !isConst {
			label = legacyMajority(trainY)
		}
		for _, i := range test {
			m.Count(label, y[i])
		}
		return m, nil
	}
	// Signal-space KNN: the kernel's dB dimensions dominate; drop the
	// (degree-scale) location columns entirely.
	sigTrain := stripLocation(trainX)
	cls := &knn.KNN{K: legacyKNNK}
	if err := cls.Fit(sigTrain, trainY); err != nil {
		return m, err
	}
	for _, i := range test {
		pred, err := cls.Predict(x[i][2:])
		if err != nil {
			return m, err
		}
		m.Count(pred, y[i])
	}
	return m, nil
}

func stripLocation(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i := range x {
		out[i] = x[i][2:]
	}
	return out
}

func legacyMajority(y []int) int {
	var vote int
	for _, v := range y {
		vote += v
	}
	if vote > 0 {
		return ml.Positive
	}
	return ml.Negative
}

// legacyChannelCV runs legacyCV for one suite channel/sensor.
func (s *Suite) legacyChannelCV(ch rfenv.Channel, kind sensor.Kind, set features.Set) (validate.Metrics, error) {
	camp, err := s.Campaign()
	if err != nil {
		return validate.Metrics{}, err
	}
	readings := camp.Readings(ch, kind)
	if len(readings) == 0 {
		return validate.Metrics{}, fmt.Errorf("experiments: no readings for %v/%v", ch, kind)
	}
	labels, err := s.Labels(ch, kind, 0)
	if err != nil {
		return validate.Metrics{}, err
	}
	return legacyCV(readings, labels, set, s.cfg.Seed+int64(ch)*37+int64(kind))
}
