package waldo

import "testing"

// TestFacadeEndToEnd exercises the public API the way the quickstart does:
// environment → campaign → labels → model → detector.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign")
	}
	env, err := BuildMetroEnvironment(7)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCampaign(CampaignSpec{Env: env, Samples: 600, Channels: []Channel{47}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	readings := camp.Readings(47, SensorRTLSDR)
	if len(readings) != 600 {
		t.Fatalf("readings = %d", len(readings))
	}
	labels, err := LabelReadings(readings, LabelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildModel(readings, labels, ConstructorConfig{
		ClusterK:   3,
		Classifier: ClassifierNB,
		Features:   FeaturesLocationRSSCFT,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Detector over the model.
	det, err := NewDetector(model, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		det.Offer(readings[0].Signal)
	}
	dec, err := det.Decide(readings[0].Loc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Label != LabelSafe && dec.Label != LabelNotSafe {
		t.Fatalf("bad decision %+v", dec)
	}
}

func TestFacadeConstants(t *testing.T) {
	if ThresholdDBm != -84 {
		t.Errorf("threshold = %v", float64(ThresholdDBm))
	}
	if ProtectRadiusM != 6000 {
		t.Errorf("radius = %v", float64(ProtectRadiusM))
	}
	if len(MeasuredChannels) != 9 || len(EvalChannels) != 7 {
		t.Error("channel sets wrong")
	}
	if c := AntennaCorrectionDB(); c < 7 || c > 8 {
		t.Errorf("antenna correction = %v", c)
	}
	if _, err := NewSensor(SensorUSRPB200); err != nil {
		t.Error(err)
	}
	if _, err := NewSensor(SensorKind(0)); err == nil {
		t.Error("invalid sensor kind must fail")
	}
	if _, err := RunCampaign(CampaignSpec{}); err == nil {
		t.Error("nil environment must fail")
	}
}
