package features

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/sensor"
)

func calibrated(t *testing.T, spec sensor.Spec, rng *rand.Rand) *sensor.Device {
	t.Helper()
	d := sensor.NewDevice(spec)
	if err := sensor.CalibrateAndInstall(d, rng, sensor.CalibrationConfig{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromObservationEmpty(t *testing.T) {
	if _, err := FromObservation(sensor.Observation{}, sensor.IdentityCalibration()); err == nil {
		t.Error("empty capture should fail")
	}
}

func TestSignalFeaturesOnStrongSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := calibrated(t, sensor.SpectrumAnalyzer(), rng)
	var rss, cft float64
	const n = 100
	for i := 0; i < n; i++ {
		obs, err := d.Observe(rng, -70, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		sig, err := FromObservation(obs, d.Calibration())
		if err != nil {
			t.Fatal(err)
		}
		rss += sig.RSSdBm / n
		cft += sig.CFTdB / n
	}
	if math.Abs(rss-(-70)) > 1.5 {
		t.Errorf("RSS = %.2f, want ≈ −70", rss)
	}
	// CFT is the pilot power: 11.3 dB below channel power.
	if math.Abs(cft-(-70-11.3)) > 1.5 {
		t.Errorf("CFT = %.2f, want ≈ %.2f", cft, -70-11.3)
	}
}

// TestCFTProcessingGain verifies the detection mechanism Waldo exploits: a
// channel below the sensor's RSS sensitivity still separates from
// no-signal in the CFT feature.
func TestCFTProcessingGain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := calibrated(t, sensor.RTLSDR(), rng)
	means := func(chanDBm float64) (rss, cft float64) {
		const n = 300
		for i := 0; i < n; i++ {
			obs, err := d.Observe(rng, chanDBm, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			sig, err := FromObservation(obs, d.Calibration())
			if err != nil {
				t.Fatal(err)
			}
			rss += sig.RSSdBm / n
			cft += sig.CFTdB / n
		}
		return rss, cft
	}
	// −100 dBm channel: capture energy ≈ −109.5, far below the RTL
	// floor — invisible to RSS.
	sigRSS, sigCFT := means(-100)
	noRSS, noCFT := means(math.Inf(-1))
	if sep := sigRSS - noRSS; sep > 1.2 {
		t.Errorf("RSS separation %.2f dB — should be nearly blind at −96 dBm", sep)
	}
	if sep := sigCFT - noCFT; sep < 3 {
		t.Errorf("CFT separation %.2f dB — processing gain should expose the pilot", sep)
	}
}

func TestSetProperties(t *testing.T) {
	if len(AllSets) != 4 {
		t.Fatal("expected 4 feature sets")
	}
	wantCounts := []int{1, 2, 3, 4}
	wantDims := []int{2, 3, 4, 5}
	for i, s := range AllSets {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
		if s.Count() != wantCounts[i] {
			t.Errorf("%v count = %d, want %d", s, s.Count(), wantCounts[i])
		}
		if s.Dim() != wantDims[i] {
			t.Errorf("%v dim = %d, want %d", s, s.Dim(), wantDims[i])
		}
		if s.String() == "" {
			t.Errorf("%v has empty name", s)
		}
	}
	if Set(0).Valid() || Set(5).Valid() {
		t.Error("out-of-range sets should be invalid")
	}
}

func TestVectorLayout(t *testing.T) {
	sig := Signal{RSSdBm: -80, CFTdB: -91, AFTdB: -93}
	xy := geo.XY{X: 2500, Y: -1500}

	v, err := SetLocation.Vector(xy, sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || v[0] != 2.5 || v[1] != -1.5 {
		t.Errorf("location vector = %v", v)
	}

	v, err = SetLocationRSSCFTAFT.Vector(xy, sig)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, -1.5, -80, -91, -93}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("full vector = %v, want %v", v, want)
		}
	}

	for _, bad := range []Set{9, 0, -3} {
		if _, err := bad.Vector(xy, sig); err == nil {
			t.Errorf("Set(%d).Vector should error", int(bad))
		}
		if _, err := bad.AppendVector(nil, xy, sig); err == nil {
			t.Errorf("Set(%d).AppendVector should error", int(bad))
		}
	}

	// AppendVector fills the caller's row in place: same values as
	// Vector, no allocation when the capacity is there.
	row := make([]float64, SetLocationRSSCFTAFT.Dim())
	if avg := testing.AllocsPerRun(100, func() {
		if v, err = SetLocationRSSCFTAFT.AppendVector(row[:0], xy, sig); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AppendVector into spare capacity allocates %.1f objects/op", avg)
	}
	if len(v) != len(want) || &v[0] != &row[0] {
		t.Fatalf("AppendVector returned %v, want the %d-value row it was given", v, len(want))
	}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("appended vector = %v, want %v", row, want)
		}
	}
}

func TestScoreANOVADiscriminability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(base float64, n int) []Signal {
		out := make([]Signal, n)
		for i := range out {
			out[i] = Signal{
				RSSdBm: base + rng.NormFloat64(),
				CFTdB:  base - 11.3 + rng.NormFloat64(),
				AFTdB:  base - 13 + rng.NormFloat64(),
			}
		}
		return out
	}
	scores := ScoreANOVA(mk(-95, 300), mk(-75, 300))
	if len(scores) != 3 {
		t.Fatalf("got %d scores", len(scores))
	}
	for _, s := range scores {
		if s.PValue > 1e-6 {
			t.Errorf("%s: p = %v, want ≈0 for separated classes", s.Name, s.PValue)
		}
		if s.F < 100 {
			t.Errorf("%s: F = %v, want large", s.Name, s.F)
		}
	}
}
