package sensing

import (
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
)

func TestDecide(t *testing.T) {
	d := &Detector{ThresholdDBm: -114}
	if d.ThresholdDBm != -114 {
		t.Fatalf("FCC threshold = %v", d.ThresholdDBm)
	}
	if d.Decide(-100) != dataset.LabelNotSafe {
		t.Error("−100 ≥ −114 must be NotSafe")
	}
	if d.Decide(-120) != dataset.LabelSafe {
		t.Error("−120 < −114 must be Safe")
	}
	if d.Decide(-114) != dataset.LabelNotSafe {
		t.Error("boundary reading must be NotSafe (inclusive)")
	}
}

func TestDecideAll(t *testing.T) {
	d := &Detector{ThresholdDBm: -84}
	readings := []dataset.Reading{
		{Signal: features.Signal{RSSdBm: -70}},
		{Signal: features.Signal{RSSdBm: -90}},
	}
	labels, err := d.DecideAll(readings)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != dataset.LabelNotSafe || labels[1] != dataset.LabelSafe {
		t.Errorf("labels = %v", labels)
	}
	if _, err := d.DecideAll(nil); err == nil {
		t.Error("empty batch must fail")
	}
}

// TestSensingOverprotection: with any realistic low-cost sensor the −114
// dBm rule marks even pure noise-floor readings occupied, reproducing the
// paper's point that sensing-only detection is infeasible on cheap
// hardware.
func TestSensingOverprotection(t *testing.T) {
	d := &Detector{ThresholdDBm: -114}
	rtlNoiseFloorReading := -88.5 // quiet-channel RSS of the RTL front end
	if d.Decide(rtlNoiseFloorReading) != dataset.LabelNotSafe {
		t.Error("RTL noise floor must trip the −114 rule")
	}
}
