package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/sensor"
)

var testOrigin = geo.Point{Lat: 33.749, Lon: -84.388}

func mkReading(seq int, loc geo.Point, rss float64) Reading {
	return Reading{
		Seq:     seq,
		Loc:     loc,
		Channel: 30,
		Sensor:  sensor.KindRTLSDR,
		Signal:  features.Signal{RSSdBm: rss, CFTdB: rss - 11, AFTdB: rss - 13},
		TrueDBm: rss,
	}
}

func TestLabelReadingsAlgorithm1(t *testing.T) {
	// One hot reading at the origin; cold readings at 3 km, 5.9 km,
	// 6.2 km and 30 km.
	readings := []Reading{
		mkReading(0, testOrigin, -70),                    // hot
		mkReading(1, testOrigin.Offset(90, 3000), -100),  // inside radius
		mkReading(2, testOrigin.Offset(180, 5900), -100), // just inside
		mkReading(3, testOrigin.Offset(270, 6200), -100), // just outside
		mkReading(4, testOrigin.Offset(45, 30000), -100), // far
		mkReading(5, testOrigin.Offset(45, 30050), -83),  // hot, poisons 4
	}
	labels, err := LabelReadings(readings, LabelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Label{LabelNotSafe, LabelNotSafe, LabelNotSafe, LabelSafe, LabelNotSafe, LabelNotSafe}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("reading %d: got %v, want %v (rss=%v)", i, labels[i], want[i], readings[i].Signal.RSSdBm)
		}
	}
}

func TestLabelThresholdIsStrict(t *testing.T) {
	// Algorithm 1 marks NotSafe when Power > −84 (strict).
	readings := []Reading{
		mkReading(0, testOrigin, -84),
		mkReading(1, testOrigin.Offset(0, 100000), -83.99),
	}
	labels, err := LabelReadings(readings, LabelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != LabelSafe {
		t.Error("reading exactly at −84 must stay Safe (strict inequality)")
	}
	if labels[1] != LabelNotSafe {
		t.Error("reading above −84 must be NotSafe")
	}
}

func TestLabelCorrectionFactor(t *testing.T) {
	// A −90 dBm reading is Safe at ground truth but the +7.5 dB antenna
	// correction pushes it above −84.
	readings := []Reading{mkReading(0, testOrigin, -90)}
	labels, err := LabelReadings(readings, LabelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != LabelSafe {
		t.Fatal("uncorrected −90 should be Safe")
	}
	labels, err = LabelReadings(readings, LabelConfig{CorrectionDB: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != LabelNotSafe {
		t.Error("+7.5 dB correction should flip −90 to NotSafe")
	}
}

func TestLabelCustomRadiusAndThreshold(t *testing.T) {
	readings := []Reading{
		mkReading(0, testOrigin, -100),
		mkReading(1, testOrigin.Offset(90, 2000), -110),
	}
	// With a −105 threshold, reading 0 is hot; with a 1 km radius,
	// reading 1 escapes.
	labels, err := LabelReadings(readings, LabelConfig{ThresholdDBm: -105, ProtectRadiusM: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != LabelNotSafe || labels[1] != LabelSafe {
		t.Errorf("labels = %v", labels)
	}
}

func TestLabelEmptyAndBias(t *testing.T) {
	labels, err := LabelReadings(nil, LabelConfig{})
	if err != nil || len(labels) != 0 {
		t.Fatalf("empty input: %v %v", labels, err)
	}

	// Protection bias: a single noisy hot reading amid 100 cold ones
	// poisons every reading within 6 km.
	rng := rand.New(rand.NewSource(1))
	var readings []Reading
	for i := 0; i < 100; i++ {
		readings = append(readings, mkReading(i, testOrigin.Offset(rng.Float64()*360, rng.Float64()*4000), -100))
	}
	readings = append(readings, mkReading(100, testOrigin, -80)) // noisy spike
	labels, err = LabelReadings(readings, LabelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	safe, notSafe := CountLabels(labels)
	if safe != 0 || notSafe != 101 {
		t.Errorf("one spike should poison all: safe=%d notSafe=%d", safe, notSafe)
	}
}

func TestCountAndFraction(t *testing.T) {
	labels := []Label{LabelSafe, LabelSafe, LabelNotSafe, LabelSafe}
	safe, notSafe := CountLabels(labels)
	if safe != 3 || notSafe != 1 {
		t.Errorf("counts = %d/%d", safe, notSafe)
	}
	if f := SafeFraction(labels); f != 0.75 {
		t.Errorf("fraction = %v", f)
	}
	if SafeFraction(nil) != 0 {
		t.Error("empty fraction should be 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	readings := []Reading{
		mkReading(0, testOrigin, -75.5),
		mkReading(1, testOrigin.Offset(10, 500), -92.25),
		mkReading(2, testOrigin.Offset(200, 1500), -101),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, readings); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(readings) {
		t.Fatalf("round trip count = %d, want %d", len(got), len(readings))
	}
	for i := range got {
		if got[i].Seq != readings[i].Seq ||
			got[i].Channel != readings[i].Channel ||
			got[i].Sensor != readings[i].Sensor {
			t.Errorf("row %d metadata mismatch: %+v vs %+v", i, got[i], readings[i])
		}
		if d := got[i].Loc.DistanceM(readings[i].Loc); d > 0.5 {
			t.Errorf("row %d location drifted %v m", i, d)
		}
		if diff := got[i].Signal.RSSdBm - readings[i].Signal.RSSdBm; diff > 0.001 || diff < -0.001 {
			t.Errorf("row %d RSS mismatch", i)
		}
	}
}

func TestCSVCarriesAltitude(t *testing.T) {
	r := mkReading(0, testOrigin, -90)
	r.AltM = 27.5
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Reading{r}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].AltM != 27.5 {
		t.Errorf("alt round trip = %v", back[0].AltM)
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad header":  "a,b,c,d,e,f,g,h,i,j\n",
		"bad channel": "seq,lat,lon,channel,sensor,rss_dbm,cft_db,aft_db,alt_m,true_dbm\n0,33.7,-84.4,99,1,-80,-91,-93,2,-80\n",
		"bad sensor":  "seq,lat,lon,channel,sensor,rss_dbm,cft_db,aft_db,alt_m,true_dbm\n0,33.7,-84.4,30,9,-80,-91,-93,2,-80\n",
		"bad number":  "seq,lat,lon,channel,sensor,rss_dbm,cft_db,aft_db,alt_m,true_dbm\n0,33.7,-84.4,30,1,xx,-91,-93,2,-80\n",
		"bad lat":     "seq,lat,lon,channel,sensor,rss_dbm,cft_db,aft_db,alt_m,true_dbm\n0,99.7,-84.4,30,1,-80,-91,-93,2,-80\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLabelString(t *testing.T) {
	if LabelSafe.String() != "safe" || LabelNotSafe.String() != "not-safe" {
		t.Error("label strings wrong")
	}
	if Label(0).String() == "" {
		t.Error("unknown label should still render")
	}
}
