package experiments

import (
	"fmt"
	"strings"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// --- Fig. 13: effect of local models (clustering) ---

// Fig13Cell is one (sensor, k, feature set) channel-averaged outcome.
type Fig13Cell struct {
	Kind sensor.Kind
	// K is the number of localities (1 = no clustering).
	K   int
	Set features.Set
	// MeanFP and MeanFN average over the evaluation channels.
	MeanFP float64
	MeanFN float64
}

// Fig13Result reproduces Fig. 13: FP/FN for k ∈ {1, 3, 5} local models
// across feature counts (paper: k = 1→3 clearly improves FP at a slight
// FN cost).
type Fig13Result struct {
	Cells []Fig13Cell
}

// Fig13Ks are the clustering arities the paper sweeps.
var Fig13Ks = []int{1, 3, 5}

// Fig13LocalModels sweeps the clustering arity with the SVM model.
func (s *Suite) Fig13LocalModels() (*Fig13Result, error) {
	res := &Fig13Result{}
	for _, kind := range []sensor.Kind{sensor.KindUSRPB200, sensor.KindRTLSDR} {
		for _, k := range Fig13Ks {
			for _, set := range features.AllSets {
				var sumFP, sumFN float64
				for _, ch := range rfenv.EvalChannels {
					m, err := s.channelCV(ch, kind, 0, core.ConstructorConfig{
						ClusterK:   k,
						Classifier: core.KindSVM,
						Features:   set,
						Seed:       s.cfg.Seed + 200,
					})
					if err != nil {
						return nil, fmt.Errorf("fig13 %v/k=%d/%v/%v: %w", kind, k, set, ch, err)
					}
					sumFP += m.FPRate()
					sumFN += m.FNRate()
				}
				n := float64(len(rfenv.EvalChannels))
				res.Cells = append(res.Cells, Fig13Cell{
					Kind: kind, K: k, Set: set,
					MeanFP: sumFP / n, MeanFN: sumFN / n,
				})
			}
		}
	}
	return res, nil
}

// Rate returns one cell's FP or FN.
func (r *Fig13Result) Rate(kind sensor.Kind, k int, set features.Set, fn bool) (float64, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.K == k && c.Set == set {
			if fn {
				return c.MeanFN, true
			}
			return c.MeanFP, true
		}
	}
	return 0, false
}

// Render implements the experiment report.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 13: FP/FN vs clustering arity k (SVM, channel means)\n")
	for _, panel := range []struct {
		title string
		fn    bool
	}{
		{"FP rate", false}, {"FN rate", true},
	} {
		fmt.Fprintf(&b, "%s:\n%-22s %8s %8s %8s %8s\n", panel.title, "series", "1", "2", "3", "4")
		for _, kind := range []sensor.Kind{sensor.KindRTLSDR, sensor.KindUSRPB200} {
			for _, k := range Fig13Ks {
				fmt.Fprintf(&b, "%-22s", fmt.Sprintf("%v k=%d", kind, k))
				for _, set := range features.AllSets {
					v, _ := r.Rate(kind, k, set, panel.fn)
					fmt.Fprintf(&b, " %8.4f", v)
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// --- Fig. 14: effect of updating the training dataset ---

// Fig14Step is one training-fraction step of one configuration.
type Fig14Step struct {
	Channel rfenv.Channel
	Kind    sensor.Kind
	Model   core.ClassifierKind
	// Fraction is the share of the available training data used.
	Fraction float64
	Metrics  validate.Metrics
}

// Fig14Result reproduces Fig. 14: error rate as the training set grows
// (fixed random 10 % test split; the remaining 90 % added in 11.11 %
// steps; k = 5 localities, two signal features).
type Fig14Result struct {
	Steps []Fig14Step
}

// Fig14Fractions are the cumulative training shares (9 steps of 1/9).
func fig14Fractions() []float64 {
	out := make([]float64, 9)
	for i := range out {
		out[i] = float64(i+1) / 9
	}
	return out
}

// Fig14TrainingSize sweeps training-set size per channel and sensor.
func (s *Suite) Fig14TrainingSize() (*Fig14Result, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for _, kind := range []sensor.Kind{sensor.KindUSRPB200, sensor.KindRTLSDR} {
		for _, model := range []core.ClassifierKind{core.KindNB, core.KindSVM} {
			for _, ch := range rfenv.EvalChannels {
				readings := camp.Readings(ch, kind)
				labels, err := s.Labels(ch, kind, 0)
				if err != nil {
					return nil, err
				}
				// Fixed shuffled split: last tenth is the test set. The
				// training fractions are prefixes of the other nine
				// folds in KFold's shuffled order, nested as the paper's
				// growing dataset is, so this reads KFold, not Splits,
				// whose training sets are in index order.
				folds, err := validate.KFold(len(readings), cvFolds, s.cfg.Seed+300+int64(ch))
				if err != nil {
					return nil, err
				}
				test := folds[9]
				var pool []int
				for f := 0; f < 9; f++ {
					pool = append(pool, folds[f]...)
				}
				for _, frac := range fig14Fractions() {
					n := int(frac * float64(len(pool)))
					if n < 50 {
						n = 50
					}
					m, err := core.BuildModel(validate.Pick(readings, pool[:n]), validate.Pick(labels, pool[:n]), core.ConstructorConfig{
						ClusterK:   5,
						Classifier: model,
						Features:   features.SetLocationRSSCFT,
						Seed:       s.cfg.Seed + 301,
					})
					if err != nil {
						return nil, fmt.Errorf("fig14 %v/%v/%v@%.2f: %w", ch, kind, model, frac, err)
					}
					var met validate.Metrics
					for _, idx := range test {
						pred, err := m.ClassifyReading(readings[idx])
						if err != nil {
							return nil, err
						}
						met.Count(labelClass(pred), labelClass(labels[idx]))
					}
					res.Steps = append(res.Steps, Fig14Step{
						Channel: ch, Kind: kind, Model: model, Fraction: frac, Metrics: met,
					})
				}
			}
		}
	}
	return res, nil
}

// ErrorCurve returns error rate vs fraction for one configuration.
func (r *Fig14Result) ErrorCurve(ch rfenv.Channel, kind sensor.Kind, model core.ClassifierKind) (fracs, errs []float64) {
	for _, st := range r.Steps {
		if st.Channel == ch && st.Kind == kind && st.Model == model {
			fracs = append(fracs, st.Fraction)
			errs = append(errs, st.Metrics.ErrorRate())
		}
	}
	return fracs, errs
}

// ErrorCDFAt pools the error rates of all configurations at the given
// fractions (Fig. 14c's CDFs at 25/50/75/100 %).
func (r *Fig14Result) ErrorCDFAt(frac float64) *dsp.ECDF {
	var vals []float64
	for _, st := range r.Steps {
		if st.Fraction >= frac-0.06 && st.Fraction <= frac+0.06 {
			vals = append(vals, st.Metrics.ErrorRate())
		}
	}
	return dsp.NewECDF(vals)
}

// Render implements the experiment report.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 14: error vs training-set size (k=5, location+RSS+CFT)\n")
	for _, ch := range []rfenv.Channel{15, 30} {
		fmt.Fprintf(&b, "%v:\n", ch)
		for _, kind := range []sensor.Kind{sensor.KindRTLSDR, sensor.KindUSRPB200} {
			for _, model := range []core.ClassifierKind{core.KindNB, core.KindSVM} {
				fracs, errs := r.ErrorCurve(ch, kind, model)
				fmt.Fprintf(&b, "  %-18s", fmt.Sprintf("%v %v", kind, model))
				for i := range fracs {
					fmt.Fprintf(&b, " %.3f", errs[i])
				}
				b.WriteString("\n")
			}
		}
	}
	b.WriteString("Fig. 14c: error CDF quantiles as training grows\n")
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		e := r.ErrorCDFAt(frac)
		fmt.Fprintf(&b, "  %3.0f%%: mean=%.4f %s\n", frac*100, e.Mean(), e.RenderQuantiles(""))
	}
	return b.String()
}

// --- Fig. 15: effect of the antenna correction factor ---

// Fig15Cell is one (sensor, model, set) channel-averaged outcome under
// corrected labels.
type Fig15Cell struct {
	Kind   sensor.Kind
	Model  core.ClassifierKind
	Set    features.Set
	MeanFP float64
	MeanFN float64
}

// Fig15Result reproduces Fig. 15: FP/FN versus feature count when labels
// include the +7.5 dB antenna correction. Channels 21/30/46 become all
// not-safe and are excluded, as in the paper.
type Fig15Result struct {
	// CorrectionDB is the applied correction.
	CorrectionDB float64
	// SurvivingChannels kept both classes under correction.
	SurvivingChannels []rfenv.Channel
	Cells             []Fig15Cell
}

// Fig15AntennaCorrection re-runs the feature sweep under corrected labels.
func (s *Suite) Fig15AntennaCorrection() (*Fig15Result, error) {
	corr := AntennaCorrectionDB()
	res := &Fig15Result{CorrectionDB: corr}

	// Identify channels that keep both classes under correction.
	for _, ch := range rfenv.EvalChannels {
		labels, err := s.Labels(ch, sensor.KindSpectrumAnalyzer, corr)
		if err != nil {
			return nil, err
		}
		safe, notSafe := dataset.CountLabels(labels)
		if safe > 0 && notSafe > 0 {
			res.SurvivingChannels = append(res.SurvivingChannels, ch)
		}
	}
	if len(res.SurvivingChannels) == 0 {
		return nil, fmt.Errorf("fig15: no channel survives the correction")
	}

	for _, kind := range []sensor.Kind{sensor.KindUSRPB200, sensor.KindRTLSDR} {
		for _, model := range []core.ClassifierKind{core.KindNB, core.KindSVM} {
			for _, set := range features.AllSets {
				var sumFP, sumFN float64
				n := 0
				for _, ch := range res.SurvivingChannels {
					// Corrected labels come from the central (trusted)
					// labeling path (§3.2): the low-cost sensors' own
					// corrected labels degenerate to all-not-safe (see
					// EXPERIMENTS.md).
					labels, err := s.Labels(ch, sensor.KindSpectrumAnalyzer, corr)
					if err != nil {
						return nil, err
					}
					m, err := s.cvWithLabels(ch, kind, labels, core.ConstructorConfig{
						ClusterK:   1,
						Classifier: model,
						Features:   set,
						Seed:       s.cfg.Seed + 400,
					})
					if err != nil {
						return nil, fmt.Errorf("fig15 %v/%v/%v/%v: %w", ch, kind, model, set, err)
					}
					sumFP += m.FPRate()
					sumFN += m.FNRate()
					n++
				}
				res.Cells = append(res.Cells, Fig15Cell{
					Kind: kind, Model: model, Set: set,
					MeanFP: sumFP / float64(n), MeanFN: sumFN / float64(n),
				})
			}
		}
	}
	return res, nil
}

// Render implements the experiment report.
func (r *Fig15Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15: FP/FN vs features with +%.1f dB antenna correction\n", r.CorrectionDB)
	fmt.Fprintf(&b, "surviving channels: %v (paper: 15, 17, 22, 47)\n", r.SurvivingChannels)
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %8s   %8s %8s %8s %8s\n",
		"series", "FP@1", "FP@2", "FP@3", "FP@4", "FN@1", "FN@2", "FN@3", "FN@4")
	for _, kind := range []sensor.Kind{sensor.KindRTLSDR, sensor.KindUSRPB200} {
		for _, model := range []core.ClassifierKind{core.KindNB, core.KindSVM} {
			fmt.Fprintf(&b, "%-22s", fmt.Sprintf("%v %v", kind, model))
			for _, wantFN := range []bool{false, true} {
				for _, set := range features.AllSets {
					for _, c := range r.Cells {
						if c.Kind == kind && c.Model == model && c.Set == set {
							v := c.MeanFP
							if wantFN {
								v = c.MeanFN
							}
							fmt.Fprintf(&b, " %8.4f", v)
						}
					}
				}
				if !wantFN {
					b.WriteString("  ")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
