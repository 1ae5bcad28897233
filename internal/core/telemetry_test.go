package core

import (
	"testing"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// TestUpdaterTelemetry checks the Global Model Updater's instrumentation:
// upload outcomes, store-size gauge, rebuild histogram, and retrain spans.
func TestUpdaterTelemetry(t *testing.T) {
	reg := telemetry.New()
	u, err := NewUpdater(UpdaterConfig{
		Constructor:  ConstructorConfig{Classifier: KindNB},
		AlphaPrimeDB: 1.0,
		Metrics:      reg,
		MetricsScope: "ch47/rtl-sdr",
	})
	if err != nil {
		t.Fatal(err)
	}
	readings, _ := synthReadings(200, 3)
	u.Bootstrap(readings)
	if got := reg.Gauge("waldo_updater_store_readings", "", "store", "ch47/rtl-sdr").Value(); got != 200 {
		t.Errorf("store gauge = %v, want 200", got)
	}

	if _, err := u.Retrain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("waldo_updater_rebuild_seconds", "", nil, "store", "ch47/rtl-sdr").Count(); got != 1 {
		t.Errorf("rebuild histogram count = %d, want 1", got)
	}
	for _, span := range []string{"retrain", "retrain/relabel", "retrain/build"} {
		if got := reg.Histogram("waldo_span_seconds", "", nil, "span", span).Count(); got != 1 {
			t.Errorf("span %q count = %d, want 1", span, got)
		}
	}

	ok := UploadBatch{Readings: readings[:5], CISpanDB: 0.4}
	if err := u.Submit(ok); err != nil {
		t.Fatal(err)
	}
	noisy := UploadBatch{Readings: readings[:5], CISpanDB: 3.0}
	if err := u.Submit(noisy); err == nil {
		t.Fatal("noisy batch accepted")
	}
	if got := reg.Counter("waldo_updater_uploads_total", "", "store", "ch47/rtl-sdr", "outcome", "accepted").Value(); got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
	if got := reg.Counter("waldo_updater_uploads_total", "", "store", "ch47/rtl-sdr", "outcome", "rejected").Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := reg.Gauge("waldo_updater_store_readings", "", "store", "ch47/rtl-sdr").Value(); got != 205 {
		t.Errorf("store gauge = %v, want 205", got)
	}
}
