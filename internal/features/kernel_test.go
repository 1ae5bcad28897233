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
// the energy detector, then the full shifted power spectrum, then the two
// reads of it. FromObservationWindowed must agree with it bit for bit.
func referenceSignal(obs sensor.Observation, cal sensor.Calibration, win dsp.Window) (Signal, error) {
	if len(obs.IQ) == 0 {
		return Signal{}, fmt.Errorf("features: empty capture")
	}
	samples := obs.IQ
	if win != dsp.WindowRect {
		samples = append([]complex128(nil), obs.IQ...)
		if err := win.Apply(samples); err != nil {
			return Signal{}, fmt.Errorf("features: %w", err)
		}
	}
	spec, err := iq.NewSpectrum(samples)
	if err != nil {
		return Signal{}, fmt.Errorf("features: %w", err)
	}
	return Signal{
		RSSdBm: cal.Apply(iq.MWToDBm(iq.EnergyMW(obs.IQ))) + iq.CaptureCorrectionDB(),
		CFTdB:  cal.Apply(iq.MWToDBm(spec.CenterBinMW())),
		AFTdB:  cal.Apply(iq.MWToDBm(spec.CenterBandMeanMW(CenterBandFrac))),
	}, nil
}

func fields(s Signal) [3]float64 { return [3]float64{s.RSSdBm, s.CFTdB, s.AFTdB} }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkAgainstReference runs both extractions. strict demands
// Float64bits equality of every feature; otherwise a feature the
// reference makes NaN or ±Inf (a capture holding such samples, or large
// enough to overflow) need only be non-finite too — skipping the exact-1
// twiddle multiply turns some of the reference's Inf·0 NaNs into Infs.
func checkAgainstReference(t *testing.T, obs sensor.Observation, cal sensor.Calibration, win dsp.Window, strict bool) {
	t.Helper()
	want, wantErr := referenceSignal(obs, cal, win)
	got, gotErr := FromObservationWindowed(obs, cal, win)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("n=%d %v: error %v, reference %v", len(obs.IQ), win, gotErr, wantErr)
	}
	w, g := fields(want), fields(got)
	for i := range w {
		if math.Float64bits(g[i]) == math.Float64bits(w[i]) {
			continue
		}
		if strict || finite(w[i]) || finite(g[i]) {
			t.Fatalf("n=%d %v: %+v, reference %+v", len(obs.IQ), win, got, want)
		}
	}
}

// TestFromObservationMatchesFullSpectrum is the kernel rule's
// differential gate on the device (DESIGN.md §8): RSS, CFT and AFT from
// the fused kernel are Float64bits-equal to the full-spectrum chain.
func TestFromObservationMatchesFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	windows := []dsp.Window{dsp.WindowRect, dsp.WindowHann, dsp.WindowBlackman}

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
			checkAgainstReference(t, obs, d.Calibration(), windows[i%len(windows)], true)
		}
	}

	cal := sensor.IdentityCalibration()
	for n := 1; n <= 4096; n *= 2 {
		zero := sensor.Observation{IQ: make([]complex128, n)}
		for _, win := range windows {
			checkAgainstReference(t, zero, cal, win, true)
		}
		if n < 2 {
			checkAgainstReference(t, sensor.Observation{IQ: []complex128{3e-5 - 4e-5i}}, cal, dsp.WindowRect, true)
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
			checkAgainstReference(t, sensor.Observation{IQ: x}, cal, windows[rep%len(windows)], true)
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
			checkAgainstReference(t, obs, cal, dsp.WindowRect, false)
			checkAgainstReference(t, obs, cal, dsp.WindowHann, false)
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
		checkAgainstReference(t, obs, cal, dsp.WindowRect, true)
		checkAgainstReference(t, obs, cal, dsp.WindowHann, true)
		checkAgainstReference(t, obs, cal, dsp.Window(99), true)
		if _, err := FromObservation(obs, cal); err == nil {
			t.Errorf("capture of %d samples: want an error", n)
		}
	}
	checkAgainstReference(t, sensor.Observation{IQ: make([]complex128, 256)}, cal, dsp.Window(99), true)
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

// fuzzCapture reads a capture out of fuzz bytes: the first byte picks the
// window (some values pick none that exists), every following 16 bytes
// are the raw bits of one sample, so NaN, ±Inf, −0, subnormals and
// overflow-sized values all occur, at any length.
func fuzzCapture(data []byte) (sensor.Observation, dsp.Window) {
	if len(data) == 0 {
		return sensor.Observation{}, dsp.WindowRect
	}
	win := dsp.Window(data[0] % 6)
	data = data[1:]
	x := make([]complex128, len(data)/16)
	for i := range x {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		x[i] = complex(re, im)
	}
	return sensor.Observation{IQ: x}, win
}

func fuzzBytes(win byte, x []complex128) []byte {
	out := []byte{win}
	for _, s := range x {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(s)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(s)))
	}
	return out
}

// FuzzFromObservationMatchesReference holds the kernel to the reference
// on arbitrary bytes. The seeds below and the committed corpus under
// testdata/fuzz run on every `go test`.
func FuzzFromObservationMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x, err := iq.Synthesize(rng, iq.CaptureConfig{Samples: max(n, 2), PilotMW: 1e-9, NoiseMW: 1e-10, PilotOffsetBins: 1.3})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fuzzBytes(byte(dsp.WindowRect), x[:n]))
		f.Add(fuzzBytes(byte(dsp.WindowHann), x[:n]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, win := fuzzCapture(data)
		checkAgainstReference(t, obs, sensor.IdentityCalibration(), win, false)
	})
}
