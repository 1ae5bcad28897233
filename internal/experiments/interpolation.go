package experiments

import (
	"fmt"
	"strings"

	"github.com/wsdetect/waldo/internal/baseline/kriging"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// InterpolationResult extends the §4.4 comparison across the whole
// measurement-augmented family the paper cites ([10], [49], [52]):
// kriging and inverse-distance interpolation alongside V-Scope's fitted
// propagation law and Waldo. All location-only systems predict the RSS
// field and answer availability from it; Waldo additionally sees the
// device's own spectrum view.
type InterpolationResult struct {
	Rows []AblationClassifierRow
}

// AblationInterpolation trains each interpolator on 90 % of the analyzer
// readings per channel and scores availability answers on the held-out
// 10 % against ground-truth labels.
func (s *Suite) AblationInterpolation() (*InterpolationResult, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	res := &InterpolationResult{}
	var krigTotal, idwTotal, waldoTotal validate.Metrics

	for _, ch := range rfenv.EvalChannels {
		readings := camp.Readings(ch, sensor.KindSpectrumAnalyzer)
		truth, err := s.GroundTruth(ch, 0)
		if err != nil {
			return nil, err
		}
		splits, err := validate.Splits(len(readings), cvFolds, s.cfg.Seed+800+int64(ch))
		if err != nil {
			return nil, err
		}
		split := splits[0]
		train := validate.Pick(readings, split.Train)

		km, err := kriging.Fit(train)
		if err != nil {
			return nil, fmt.Errorf("interp %v kriging: %w", ch, err)
		}
		idw, err := kriging.FitIDW(train)
		if err != nil {
			return nil, fmt.Errorf("interp %v idw: %w", ch, err)
		}
		for _, i := range split.Test {
			kOK, err := km.Available(readings[i].Loc)
			if err != nil {
				return nil, err
			}
			iOK, err := idw.Available(readings[i].Loc)
			if err != nil {
				return nil, err
			}
			krigTotal.Count(boolClass(kOK), labelClass(truth[i]))
			idwTotal.Count(boolClass(iOK), labelClass(truth[i]))
		}

		// Waldo on the analyzer data for a like-for-like comparison.
		wm, err := s.cvWithLabels(ch, sensor.KindSpectrumAnalyzer, truth, core.ConstructorConfig{
			ClusterK:   1,
			Classifier: core.KindSVM,
			Features:   features.SetLocationRSSCFT,
			Seed:       s.cfg.Seed + 801,
		})
		if err != nil {
			return nil, err
		}
		waldoTotal.Add(wm)
	}

	res.Rows = append(res.Rows,
		AblationClassifierRow{Name: "kriging", Metrics: krigTotal},
		AblationClassifierRow{Name: "idw", Metrics: idwTotal},
		AblationClassifierRow{Name: "waldo", Metrics: waldoTotal},
	)
	return res, nil
}

// Render implements the experiment report.
func (r *InterpolationResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.4 extension: measurement-interpolation family vs Waldo (analyzer data)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", "system", "err", "FP", "FN")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %8.4f %8.4f %8.4f\n",
			row.Name, row.Metrics.ErrorRate(), row.Metrics.FPRate(), row.Metrics.FNRate())
	}
	b.WriteString("(interpolators see only location at query time; Waldo also sees the device's spectrum view)\n")
	return b.String()
}
