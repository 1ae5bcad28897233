package experiments

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// cvFolds is the paper's cross-validation arity (§4.1: 10-fold, 90/10).
const cvFolds = 10

// waldoCV cross-validates a full Waldo model (clustering + per-locality
// classifiers) over one channel/sensor dataset: for each fold the model is
// rebuilt from the training 90 % and scored on the held-out 10 %.
func waldoCV(readings []dataset.Reading, labels []dataset.Label, cfg core.ConstructorConfig, seed int64) (validate.Metrics, error) {
	var total validate.Metrics
	splits, err := validate.Splits(len(readings), cvFolds, seed)
	if err != nil {
		return total, err
	}
	for f, sp := range splits {
		m, err := core.BuildModel(validate.Pick(readings, sp.Train), validate.Pick(labels, sp.Train), cfg)
		if err != nil {
			return total, fmt.Errorf("fold %d: %w", f, err)
		}
		for _, i := range sp.Test {
			pred, err := m.ClassifyReading(readings[i])
			if err != nil {
				return total, fmt.Errorf("fold %d classify: %w", f, err)
			}
			total.Count(labelClass(pred), labelClass(labels[i]))
		}
	}
	return total, nil
}

func labelClass(l dataset.Label) int {
	if l == dataset.LabelSafe {
		return 1
	}
	return -1
}

// channelCV runs waldoCV for one suite channel/sensor with optional
// antenna correction on the labels.
func (s *Suite) channelCV(ch rfenv.Channel, kind sensor.Kind, corrDB float64, cfg core.ConstructorConfig) (validate.Metrics, error) {
	labels, err := s.Labels(ch, kind, corrDB)
	if err != nil {
		return validate.Metrics{}, err
	}
	return s.cvWithLabels(ch, kind, labels, cfg)
}

// cvWithLabels runs waldoCV for a channel/sensor's readings under an
// explicit label vector (e.g. centrally-computed labels, §3.2).
func (s *Suite) cvWithLabels(ch rfenv.Channel, kind sensor.Kind, labels []dataset.Label, cfg core.ConstructorConfig) (validate.Metrics, error) {
	camp, err := s.Campaign()
	if err != nil {
		return validate.Metrics{}, err
	}
	readings := camp.Readings(ch, kind)
	if len(readings) == 0 {
		return validate.Metrics{}, fmt.Errorf("experiments: no readings for %v/%v", ch, kind)
	}
	if len(labels) != len(readings) {
		return validate.Metrics{}, fmt.Errorf("experiments: %d labels for %d readings", len(labels), len(readings))
	}
	return waldoCV(readings, labels, cfg, s.cfg.Seed+int64(ch)*31+int64(kind))
}
