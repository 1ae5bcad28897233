package vscope

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// synthChannel generates readings following an exact log-distance law
// RSS = A − 10·n·log10(d_km) + noise around one transmitter.
func synthChannel(tx rfenv.Transmitter, a, n float64, count int, seed int64) []dataset.Reading {
	rng := rand.New(rand.NewSource(seed))
	var out []dataset.Reading
	for i := 0; i < count; i++ {
		loc := tx.Loc.Offset(rng.Float64()*360, 1000+rng.Float64()*24000)
		dKM := tx.Loc.DistanceM(loc) / 1000
		rss := a - 10*n*math.Log10(dKM) + rng.NormFloat64()
		out = append(out, dataset.Reading{
			Seq: i, Loc: loc, Channel: tx.Channel, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
		})
	}
	return out
}

func TestTrainRecoversExponent(t *testing.T) {
	tx := rfenv.Transmitter{Callsign: "T", Loc: rfenv.MetroCenter, Channel: 30, ERPdBm: 80, HeightM: 300}
	readings := map[rfenv.Channel][]dataset.Reading{
		30: synthChannel(tx, -40, 3.2, 800, 1),
	}
	m, err := Train(readings, Config{Transmitters: []rfenv.Transmitter{tx}, ClusterK: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := m.models[30].clusters[0].n
	if math.Abs(n-3.2) > 0.2 {
		t.Errorf("fitted exponent = %v, want ≈3.2", n)
	}
	// Prediction at a fresh point should be close to the law.
	p := rfenv.MetroCenter.Offset(10, 9000)
	want := -40 - 32*math.Log10(9)
	got, err := m.PredictRSS(30, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1.5 {
		t.Errorf("predicted %v, want ≈%v", got, want)
	}
}

func TestAvailabilityContour(t *testing.T) {
	tx := rfenv.Transmitter{Callsign: "T", Loc: rfenv.MetroCenter, Channel: 30, ERPdBm: 80, HeightM: 300}
	// A = −40, n = 3.5: contour at 10^((−40+84)/35) = 10^1.257 ≈ 18.1 km.
	readings := map[rfenv.Channel][]dataset.Reading{
		30: synthChannel(tx, -40, 3.5, 800, 3),
	}
	m, err := Train(readings, Config{Transmitters: []rfenv.Transmitter{tx}, ClusterK: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	inside, err := m.Available(30, rfenv.MetroCenter.Offset(0, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if inside {
		t.Error("10 km (inside contour) should be denied")
	}
	buffer, err := m.Available(30, rfenv.MetroCenter.Offset(0, 22000))
	if err != nil {
		t.Fatal(err)
	}
	if buffer {
		t.Error("contour + <6 km buffer should be denied")
	}
	outside, err := m.Available(30, rfenv.MetroCenter.Offset(0, 30000))
	if err != nil {
		t.Fatal(err)
	}
	if !outside {
		t.Error("far outside should be allowed")
	}
}

// TestVScopeBlindToPockets captures the structural weakness Waldo
// exploits: a deep obstruction pocket inside the fitted contour is still
// denied, and an obstructed region's labels cannot be expressed radially.
func TestVScopeBlindToPockets(t *testing.T) {
	tx := rfenv.Transmitter{Callsign: "T", Loc: rfenv.MetroCenter, Channel: 47, ERPdBm: 80, HeightM: 300}
	readings := synthChannel(tx, -40, 3.5, 800, 5)
	// Carve a pocket at 8 km north: readings there are 25 dB down.
	pocket := rfenv.MetroCenter.Offset(0, 8000)
	for i := range readings {
		if readings[i].Loc.DistanceM(pocket) < 2000 {
			readings[i].Signal.RSSdBm -= 25
		}
	}
	m, err := Train(map[rfenv.Channel][]dataset.Reading{47: readings},
		Config{Transmitters: []rfenv.Transmitter{tx}, ClusterK: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	avail, err := m.Available(47, pocket)
	if err != nil {
		t.Fatal(err)
	}
	if avail {
		t.Error("V-Scope should deny the pocket — it models distance, not terrain")
	}
}

func TestTrainValidation(t *testing.T) {
	tx := rfenv.Transmitter{Callsign: "T", Loc: rfenv.MetroCenter, Channel: 30, ERPdBm: 80, HeightM: 300}
	if _, err := Train(nil, Config{Transmitters: []rfenv.Transmitter{tx}}); err == nil {
		t.Error("no readings must fail")
	}
	readings := map[rfenv.Channel][]dataset.Reading{30: synthChannel(tx, -40, 3, 50, 7)}
	if _, err := Train(readings, Config{}); err == nil {
		t.Error("no registry must fail")
	}
	// Channel without a transmitter on it.
	bad := map[rfenv.Channel][]dataset.Reading{15: synthChannel(tx, -40, 3, 50, 8)}
	for i := range bad[15] {
		bad[15][i].Channel = 15
	}
	if _, err := Train(bad, Config{Transmitters: []rfenv.Transmitter{tx}}); err == nil {
		t.Error("channel without incumbents must fail")
	}
	m, err := Train(readings, Config{Transmitters: []rfenv.Transmitter{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Available(22, rfenv.MetroCenter); err == nil {
		t.Error("query for untrained channel must fail")
	}
	if _, err := m.PredictRSS(22, rfenv.MetroCenter); err == nil {
		t.Error("prediction for untrained channel must fail")
	}
}

func TestExponentClamping(t *testing.T) {
	tx := rfenv.Transmitter{Callsign: "T", Loc: rfenv.MetroCenter, Channel: 30, ERPdBm: 80, HeightM: 300}
	// Pure noise readings: slope fit is garbage; exponent must clamp.
	rng := rand.New(rand.NewSource(9))
	var readings []dataset.Reading
	for i := 0; i < 200; i++ {
		loc := tx.Loc.Offset(rng.Float64()*360, 1000+rng.Float64()*20000)
		readings = append(readings, dataset.Reading{
			Seq: i, Loc: loc, Channel: 30, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: -90 + rng.NormFloat64()*15},
		})
	}
	m, err := Train(map[rfenv.Channel][]dataset.Reading{30: readings},
		Config{Transmitters: []rfenv.Transmitter{tx}, ClusterK: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	n := m.models[30].clusters[0].n
	if n < minExponent || n > maxExponent {
		t.Errorf("exponent %v outside clamp range", n)
	}
}
