package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/iq"
	"github.com/wsdetect/waldo/internal/sensor"
)

// referenceSignal is feature extraction as it was before dsp.PilotBand:
// the energy detector, then the full power spectrum shifted DC to the
// centre bin (a half swap: captures are a power of two long), then the
// two reads of it. FromObservation must agree with it bit for bit.
func referenceSignal(obs sensor.Observation, cal sensor.Calibration) (Signal, error) {
	n := len(obs.IQ)
	if n == 0 {
		return Signal{}, fmt.Errorf("features: empty capture")
	}
	bins := make([]float64, n)
	if err := dsp.PowerSpectrumInto(bins, obs.IQ); err != nil {
		return Signal{}, fmt.Errorf("features: %w", err)
	}
	for i := 0; i < n/2; i++ {
		bins[i], bins[i+n/2] = bins[i+n/2], bins[i]
	}
	w := iq.CenterBandBins(n, CenterBandFrac)
	var band float64
	for _, v := range bins[n/2-w/2 : n/2-w/2+w] {
		band += v
	}
	return Signal{
		RSSdBm: cal.Apply(iq.MWToDBm(iq.EnergyMW(obs.IQ))) + iq.CaptureCorrectionDB(),
		CFTdB:  cal.Apply(iq.MWToDBm(bins[n/2])),
		AFTdB:  cal.Apply(iq.MWToDBm(band / float64(w))),
	}, nil
}

func fields(s Signal) [3]float64 { return [3]float64{s.RSSdBm, s.CFTdB, s.AFTdB} }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkAgainstReference runs both extractions. strict demands
// Float64bits equality of every feature; otherwise a feature the
// reference makes NaN or ±Inf (a capture holding such samples, or large
// enough to overflow) need only be non-finite too — skipping the exact-1
// twiddle multiply turns some of the reference's Inf·0 NaNs into Infs.
func checkAgainstReference(t *testing.T, obs sensor.Observation, cal sensor.Calibration, strict bool) {
	t.Helper()
	want, wantErr := referenceSignal(obs, cal)
	got, gotErr := FromObservation(obs, cal)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("n=%d: error %v, reference %v", len(obs.IQ), gotErr, wantErr)
	}
	w, g := fields(want), fields(got)
	for i := range w {
		if math.Float64bits(g[i]) == math.Float64bits(w[i]) {
			continue
		}
		if strict || finite(w[i]) || finite(g[i]) {
			t.Fatalf("n=%d: %+v, reference %+v", len(obs.IQ), got, want)
		}
	}
}

// checkDevicePath holds Set.Measure, the device's extraction, to
// FromObservation: every set gets the same error, bit-identical RSS, CFT
// when it reads CFT and AFT when it reads AFT, and −Inf for the features
// it does not read. A capture holding a non-finite sample gives
// non-finite measured features, as FromObservation's are, so
// Updater.Submit refuses them.
func checkDevicePath(t *testing.T, obs sensor.Observation, cal sensor.Calibration) {
	t.Helper()
	full, fullErr := FromObservation(obs, cal)
	nonFinite := false
	for _, s := range obs.IQ {
		nonFinite = nonFinite || !finite(real(s)) || !finite(imag(s))
	}
	for _, set := range AllSets {
		got, err := set.Measure(obs, cal)
		if (err == nil) != (fullErr == nil) || (err != nil && err.Error() != fullErr.Error()) {
			t.Fatalf("n=%d %v: error %v, FromObservation %v", len(obs.IQ), set, err, fullErr)
		}
		if err != nil {
			continue
		}
		want := full
		if set < SetLocationRSSCFT {
			want.CFTdB = math.Inf(-1)
		}
		if set < SetLocationRSSCFTAFT {
			want.AFTdB = math.Inf(-1)
		}
		g, w := fields(got), fields(want)
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("n=%d %v: %+v, FromObservation %+v", len(obs.IQ), set, got, full)
			}
			if nonFinite && finite(g[i]) {
				t.Fatalf("n=%d %v: non-finite capture, finite feature in %+v", len(obs.IQ), set, got)
			}
		}
	}
}

// TestFromObservationMatchesFullSpectrum is the kernel rule's
// differential gate on the device (DESIGN.md §8): RSS, CFT and AFT from
// the fused kernel are Float64bits-equal to the full-spectrum chain.
func TestFromObservationMatchesFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(14))

	dropout := sensor.RTLSDR()
	dropout.DropoutProb, dropout.ImpulseProb = 1, 0.5
	offTune := sensor.USRPB200()
	offTune.TunerOffsetSigmaBins = 20
	for _, spec := range []sensor.Spec{sensor.RTLSDR(), sensor.USRPB200(), sensor.SpectrumAnalyzer(), dropout, offTune} {
		d := calibrated(t, spec, rng)
		for i := 0; i < 400; i++ {
			signal, other := -110+60*rng.Float64(), -90+60*rng.Float64()
			if i%3 == 0 {
				signal = math.Inf(-1) // pilot absent
			}
			if i%2 == 0 {
				other = math.Inf(-1)
			}
			obs, err := d.Observe(rng, signal, other)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, obs, d.Calibration(), true)
			checkDevicePath(t, obs, d.Calibration())
		}
	}

	cal := sensor.IdentityCalibration()
	for n := 1; n <= 4096; n *= 2 {
		checkAgainstReference(t, sensor.Observation{IQ: make([]complex128, n)}, cal, true)
		if n < 2 {
			checkAgainstReference(t, sensor.Observation{IQ: []complex128{3e-5 - 4e-5i}}, cal, true)
			continue
		}
		for rep := 0; rep < 25; rep++ {
			x, err := iq.Synthesize(rng, iq.CaptureConfig{
				Samples: n, PilotMW: 1e-9 * rng.Float64(), BodyMW: 1e-10 * rng.Float64(),
				NoiseMW: 1e-10, PilotOffsetBins: 3 * rng.NormFloat64(),
			})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, sensor.Observation{IQ: x}, cal, true)
		}
	}
}

// TestFromObservationNonFiniteAndErrors: hostile captures. Non-finite
// samples give non-finite features on both sides (Updater.Submit refuses
// those readings); captures the transform cannot take give the errors
// they always gave.
func TestFromObservationNonFiniteAndErrors(t *testing.T) {
	cal := sensor.IdentityCalibration()
	rng := rand.New(rand.NewSource(15))
	for _, bad := range []complex128{complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 1), 1e200 + 1e200i} {
		for _, at := range []int{0, 1, 100, 255} {
			x, err := iq.Synthesize(rng, iq.CaptureConfig{PilotMW: 1e-9, NoiseMW: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			x[at] = bad
			obs := sensor.Observation{IQ: x}
			checkAgainstReference(t, obs, cal, false)
			checkDevicePath(t, obs, cal)
			got, err := FromObservation(obs, cal)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range fields(got) {
				if finite(v) {
					t.Fatalf("sample %v at %d: finite feature in %+v", bad, at, got)
				}
			}
		}
	}
	for _, n := range []int{0, 3, 100, 255, 257} {
		obs := sensor.Observation{IQ: make([]complex128, n)}
		checkAgainstReference(t, obs, cal, true)
		checkDevicePath(t, obs, cal)
		if _, err := FromObservation(obs, cal); err == nil {
			t.Errorf("capture of %d samples: want an error", n)
		}
	}
	if _, err := Set(0).Measure(sensor.Observation{IQ: make([]complex128, 256)}, cal); err == nil {
		t.Error("Measure for an invalid set: want an error")
	}
}

// TestFromObservationZeroAlloc: extraction allocates nothing per capture
// once the transform plan and the scratch pool are warm.
func TestFromObservationZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := calibrated(t, sensor.RTLSDR(), rng)
	obs, err := d.Observe(rng, -80, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	cal := d.Calibration()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := FromObservation(obs, cal); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FromObservation allocs/capture = %v, want 0", n)
	}
}

// TestMeasureZeroAlloc: the device's extraction, for the shipped
// location + RSS + CFT set, allocates nothing per capture either.
func TestMeasureZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := calibrated(t, sensor.RTLSDR(), rng)
	obs, err := d.Observe(rng, -80, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	cal := d.Calibration()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := SetLocationRSSCFT.Measure(obs, cal); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SetLocationRSSCFT.Measure allocs/capture = %v, want 0", n)
	}
}

// fuzzCapture reads a capture out of fuzz bytes: the first byte is a
// header, read and ignored (it once picked an analysis window, and the
// committed corpus keeps it), and every following 16 bytes are the raw
// bits of one sample, so NaN, ±Inf, −0, subnormals and overflow-sized
// values all occur, at any length.
func fuzzCapture(data []byte) sensor.Observation {
	if len(data) == 0 {
		return sensor.Observation{}
	}
	data = data[1:]
	x := make([]complex128, len(data)/16)
	for i := range x {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		x[i] = complex(re, im)
	}
	return sensor.Observation{IQ: x}
}

func fuzzBytes(x []complex128) []byte {
	out := []byte{0} // the header byte
	for _, s := range x {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(s)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(s)))
	}
	return out
}

// FuzzFromObservationMatchesReference holds the kernel to the reference
// on arbitrary bytes, and the device's Set.Measure to FromObservation
// (checkDevicePath). The seeds below and the committed corpus under
// testdata/fuzz run on every `go test`: at each length, a pilot between
// bins and one on a bin centre.
func FuzzFromObservationMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for _, offset := range []float64{1.3, 0} {
		for _, n := range []int{1, 2, 8, 64, 256} {
			x, err := iq.Synthesize(rng, iq.CaptureConfig{Samples: max(n, 2), PilotMW: 1e-9, NoiseMW: 1e-10, PilotOffsetBins: offset})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(fuzzBytes(x[:n]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obs := fuzzCapture(data)
		checkAgainstReference(t, obs, sensor.IdentityCalibration(), false)
		checkDevicePath(t, obs, sensor.IdentityCalibration())
	})
}
