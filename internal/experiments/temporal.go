package experiments

import (
	"fmt"
	"slices"
	"strings"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// TemporalRow is one channel's stale-vs-updated comparison.
type TemporalRow struct {
	Channel rfenv.Channel
	// Stale is a model trained only on the original campaign, evaluated
	// months later.
	Stale validate.Metrics
	// Updated is the same model family retrained after the Global Model
	// Updater absorbed the new pass.
	Updated validate.Metrics
}

// TemporalResult quantifies §3.4's second challenge — "coping with changes
// in the environment that affect signal propagation" — which the paper
// motivates (two collection sets months apart) but never measures: a
// second campaign runs in a temporally drifted environment (shadowing
// rho-correlated with the original), and a stale model is compared with
// one refreshed through the updater.
type TemporalResult struct {
	// Rho is the across-time shadowing correlation.
	Rho  float64
	Rows []TemporalRow
	// StaleTotal and UpdatedTotal aggregate over channels.
	StaleTotal   validate.Metrics
	UpdatedTotal validate.Metrics
}

// AblationTemporalDrift runs the two-pass protocol on the evaluation
// channels with the RTL-SDR.
func (s *Suite) AblationTemporalDrift() (*TemporalResult, error) {
	const rho = 0.9
	env, err := s.Env()
	if err != nil {
		return nil, err
	}
	camp1, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	later, err := env.TemporalVariant(uint64(s.cfg.Seed)+77, rho)
	if err != nil {
		return nil, err
	}
	// The second pass drives the same roads months later (same route,
	// fresh measurement noise), as the paper's second collection set did.
	camp2, err := wardrive.Run(wardrive.CampaignConfig{
		Env:     later,
		Route:   camp1.Route,
		Sensors: []sensor.Spec{sensor.RTLSDR()},
		Seed:    s.cfg.Seed + 900,
	})
	if err != nil {
		return nil, fmt.Errorf("temporal: second pass: %w", err)
	}

	res := &TemporalResult{Rho: rho}
	cfg := core.ConstructorConfig{
		ClusterK:   3,
		Classifier: core.KindSVM,
		Features:   features.SetLocationRSSCFT,
		Seed:       s.cfg.Seed + 901,
	}
	for _, ch := range rfenv.EvalChannels {
		r1 := camp1.Readings(ch, sensor.KindRTLSDR)
		l1, err := s.Labels(ch, sensor.KindRTLSDR, 0)
		if err != nil {
			return nil, err
		}
		r2 := camp2.Readings(ch, sensor.KindRTLSDR)
		l2, err := dataset.LabelReadings(r2, dataset.LabelConfig{})
		if err != nil {
			return nil, err
		}

		// Held-out tenth of the new pass is the test set for both models.
		splits, err := validate.Splits(len(r2), cvFolds, s.cfg.Seed+902+int64(ch))
		if err != nil {
			return nil, err
		}
		split := splits[0]

		stale, err := core.BuildModel(r1, l1, cfg)
		if err != nil {
			return nil, fmt.Errorf("temporal: stale %v: %w", ch, err)
		}
		pooledR := slices.Concat(r1, validate.Pick(r2, split.Train))
		pooledL := slices.Concat(l1, validate.Pick(l2, split.Train))
		updated, err := core.BuildModel(pooledR, pooledL, cfg)
		if err != nil {
			return nil, fmt.Errorf("temporal: updated %v: %w", ch, err)
		}

		row := TemporalRow{Channel: ch}
		for _, i := range split.Test {
			sp, err := stale.ClassifyReading(r2[i])
			if err != nil {
				return nil, err
			}
			up, err := updated.ClassifyReading(r2[i])
			if err != nil {
				return nil, err
			}
			row.Stale.Count(labelClass(sp), labelClass(l2[i]))
			row.Updated.Count(labelClass(up), labelClass(l2[i]))
		}
		res.StaleTotal.Add(row.Stale)
		res.UpdatedTotal.Add(row.Updated)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render implements the experiment report.
func (r *TemporalResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.4 extension: temporal drift (shadowing correlation ρ=%.2f across passes)\n", r.Rho)
	fmt.Fprintf(&b, "%-8s %22s %22s\n", "channel", "stale (err/FP/FN)", "updated (err/FP/FN)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8v %7.4f %6.4f %7.4f %7.4f %6.4f %7.4f\n", row.Channel,
			row.Stale.ErrorRate(), row.Stale.FPRate(), row.Stale.FNRate(),
			row.Updated.ErrorRate(), row.Updated.FPRate(), row.Updated.FNRate())
	}
	fmt.Fprintf(&b, "TOTAL    %7.4f %6.4f %7.4f %7.4f %6.4f %7.4f\n",
		r.StaleTotal.ErrorRate(), r.StaleTotal.FPRate(), r.StaleTotal.FNRate(),
		r.UpdatedTotal.ErrorRate(), r.UpdatedTotal.FPRate(), r.UpdatedTotal.FNRate())
	b.WriteString("(the Global Model Updater's reason to exist: retraining on uploaded readings\n")
	b.WriteString(" recovers the accuracy the drifted environment took away)\n")
	return b.String()
}
