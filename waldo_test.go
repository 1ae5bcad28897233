package waldo

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart does:
// environment → campaign → labels → model → detector → codec → server →
// client.
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

	// Classification round-trips through the codec.
	var buf bytes.Buffer
	if err := EncodeModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if size == 0 {
		t.Fatal("empty descriptor")
	}
	clone, err := DecodeModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, err := model.ClassifyReading(readings[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := clone.ClassifyReading(readings[i])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("codec round-trip mismatch at %d", i)
		}
	}
	if n, err := EncodedModelSize(model); err != nil || n != size {
		t.Errorf("EncodedModelSize = %d, %v; want %d", n, err, size)
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

	// Server + client.
	srv := NewDatabaseServer(DatabaseConfig{})
	if err := srv.Bootstrap(readings); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	fetched, n, err := c.Model(context.Background(), 47, SensorRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if fetched == nil || n == 0 {
		t.Fatal("client fetch failed")
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

func TestObservatoryFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign")
	}
	env, err := BuildMetroEnvironment(7)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCampaign(CampaignSpec{Env: env, Samples: 900, Channels: []Channel{47}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	readings := camp.Readings(47, SensorSpectrumAnalyzer)

	est, err := LocalizeTransmitter(readings, LocalizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var truth Transmitter
	for _, tx := range env.Transmitters() {
		if tx.Channel == 47 {
			truth = tx
		}
	}
	if d := est.Loc.DistanceM(truth.Loc); d > 6000 {
		t.Errorf("localization %v m off", d)
	}

	km, err := FitKriging(readings, KrigingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	center := env.Area.Center()
	got, err := km.PredictRSS(center)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - env.RSSDBm(47, center); diff > 12 || diff < -12 {
		t.Errorf("kriging at center off by %.1f dB", diff)
	}
}
