// Package sensing implements the sensing-only white-space detector: a
// device decides from its own instantaneous reading against a fixed
// threshold, with no database and no model. Under FCC rules the threshold
// is −114 dBm — 30 dB below decodability, to cover hidden-node scenarios —
// which is exactly what makes sensing-only detection both equipment-bound
// (only $10-40K analyzers reach it) and grossly over-protective (paper §1:
// up to 2× the actual coverage area). The detector exists as the Table 2
// comparison point and for threshold-sweep ablations.
package sensing

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/dataset"
)

// Detector is a threshold-rule spectrum sensor.
type Detector struct {
	// ThresholdDBm is the detection threshold; readings at or above it
	// declare the channel occupied. The FCC sensing rule uses −114.
	ThresholdDBm float64
}

// Decide classifies one reading.
func (d *Detector) Decide(rssDBm float64) dataset.Label {
	if rssDBm >= d.ThresholdDBm {
		return dataset.LabelNotSafe
	}
	return dataset.LabelSafe
}

// DecideAll classifies a batch of readings.
func (d *Detector) DecideAll(readings []dataset.Reading) ([]dataset.Label, error) {
	if len(readings) == 0 {
		return nil, fmt.Errorf("sensing: no readings")
	}
	out := make([]dataset.Label, len(readings))
	for i := range readings {
		out[i] = d.Decide(readings[i].Signal.RSSdBm)
	}
	return out, nil
}
