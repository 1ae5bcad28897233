package iq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wsdetect/waldo/internal/dsp"
)

// shiftedSpectrum is the power spectrum of a capture with DC moved to the
// centre bin n/2 — the half swap of dsp.PowerSpectrumInto's bins, since
// captures are a power of two long.
func shiftedSpectrum(t *testing.T, s []complex128) []float64 {
	t.Helper()
	bins := make([]float64, len(s))
	if err := dsp.PowerSpectrumInto(bins, s); err != nil {
		t.Fatal(err)
	}
	half := len(bins) / 2
	for i := 0; i < half; i++ {
		bins[i], bins[i+half] = bins[i+half], bins[i]
	}
	return bins
}

func TestDBmConversions(t *testing.T) {
	tests := []struct {
		dbm, mw float64
	}{
		{0, 1},
		{10, 10},
		{-30, 0.001},
		{-84, math.Pow(10, -8.4)},
	}
	for _, tt := range tests {
		if got := DBmToMW(tt.dbm); math.Abs(got-tt.mw) > 1e-12*tt.mw {
			t.Errorf("DBmToMW(%v) = %v, want %v", tt.dbm, got, tt.mw)
		}
		if got := MWToDBm(tt.mw); math.Abs(got-tt.dbm) > 1e-9 {
			t.Errorf("MWToDBm(%v) = %v, want %v", tt.mw, got, tt.dbm)
		}
	}
	if !math.IsInf(MWToDBm(0), -1) {
		t.Error("MWToDBm(0) should be -inf")
	}
}

func TestDBmRoundTrip(t *testing.T) {
	f := func(dbm float64) bool {
		d := math.Mod(dbm, 200) // keep in a sane range
		return math.Abs(MWToDBm(DBmToMW(d))-d) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Synthesize(rng, CaptureConfig{Samples: 100}); err == nil {
		t.Error("non-power-of-two length should fail")
	}
	if _, err := Synthesize(rng, CaptureConfig{PilotMW: -1}); err == nil {
		t.Error("negative power should fail")
	}
	s, err := Synthesize(rng, CaptureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != DefaultSamples {
		t.Errorf("default length = %d, want %d", len(s), DefaultSamples)
	}
}

func TestEnergyDetectorRecoversPower(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Noise-only capture: energy ≈ noise power.
	const noiseMW = 1e-9
	var sum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		s, err := Synthesize(rng, CaptureConfig{NoiseMW: noiseMW})
		if err != nil {
			t.Fatal(err)
		}
		sum += EnergyMW(s)
	}
	mean := sum / trials
	if math.Abs(mean-noiseMW) > 0.02*noiseMW {
		t.Errorf("mean noise energy = %v, want %v ± 2%%", mean, noiseMW)
	}
}

func TestEnergyDetectorPilotPlusNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := CaptureConfig{PilotMW: 4e-9, BodyMW: 1e-9, NoiseMW: 1e-9}
	var sum float64
	const trials = 300
	for i := 0; i < trials; i++ {
		s, err := Synthesize(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum += EnergyMW(s)
	}
	want := cfg.PilotMW + cfg.BodyMW + cfg.NoiseMW
	mean := sum / trials
	if math.Abs(mean-want) > 0.03*want {
		t.Errorf("mean energy = %v, want %v", mean, want)
	}
}

func TestSpectrumPilotProcessingGain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Pilot 6 dB below the noise floor: invisible to wideband energy
	// detection, but the center bin should still stand far above the
	// per-bin noise thanks to FFT processing gain (~24 dB at N=256).
	cfg := CaptureConfig{PilotMW: 0.25e-9, NoiseMW: 1e-9}
	var center, offBin float64
	const trials = 100
	for i := 0; i < trials; i++ {
		s, err := Synthesize(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := shiftedSpectrum(t, s)
		center += sp[len(sp)/2]
		offBin += sp[10] // far from pilot
	}
	gainDB := 10 * math.Log10(center/offBin)
	if gainDB < 12 {
		t.Errorf("center-bin advantage = %.1f dB, want > 12 dB for a pilot 6 dB under the floor", gainDB)
	}
}

func TestSpectrumParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := Synthesize(rng, CaptureConfig{PilotMW: 2e-9, BodyMW: 1e-9, NoiseMW: 0.5e-9})
	if err != nil {
		t.Fatal(err)
	}
	te := EnergyMW(s)
	var fe float64
	for _, v := range shiftedSpectrum(t, s) {
		fe += v
	}
	if math.Abs(te-fe) > 1e-9*te {
		t.Errorf("time energy %v vs spectrum total %v", te, fe)
	}
}

// TestCenterBandMeanMW: the band CenterBandBins sizes, shifted bins
// [n/2−w/2, n/2−w/2+w), is the central frac of the spectrum; its mean is
// the AFT feature's source.
func TestCenterBandMeanMW(t *testing.T) {
	bins := make([]float64, 100)
	for i := range bins {
		bins[i] = 1
	}
	bins[50] = 101 // center spike
	bandMean := func(frac float64) float64 {
		w := CenterBandBins(len(bins), frac)
		if w == 0 {
			return 0
		}
		lo := len(bins)/2 - w/2
		var sum float64
		for _, v := range bins[lo : lo+w] {
			sum += v
		}
		return sum / float64(w)
	}
	// 15% of 100 bins = 15 bins around center: mean = (14*1 + 101)/15.
	got := bandMean(0.15)
	want := (14.0 + 101.0) / 15.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("band mean = %v, want %v", got, want)
	}
	if bandMean(0) != 0 {
		t.Error("frac 0 should return 0")
	}
	if got := bandMean(5); math.Abs(got-2.0) > 1e-9 { // clamped to all bins
		t.Errorf("frac > 1 should clamp to all bins: %v", got)
	}
}

func TestPilotOffsetMovesEnergyOffCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	centered, err := Synthesize(rng, CaptureConfig{PilotMW: 1e-9, PilotOffsetBins: 0})
	if err != nil {
		t.Fatal(err)
	}
	offset, err := Synthesize(rng, CaptureConfig{PilotMW: 1e-9, PilotOffsetBins: 8})
	if err != nil {
		t.Fatal(err)
	}
	spC, spO := shiftedSpectrum(t, centered), shiftedSpectrum(t, offset)
	mid := len(spC) / 2
	if spC[mid] < 100*spO[mid] {
		t.Errorf("pilot offset should drain the center bin: centered=%v offset=%v", spC[mid], spO[mid])
	}
	// The offset pilot's energy should appear 8 bins above center.
	if spO[mid+8] < 0.5e-9 {
		t.Errorf("offset pilot bin power = %v, want ~1e-9", spO[mid+8])
	}
}
