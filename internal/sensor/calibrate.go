package sensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Calibration is the linear map from a device's raw dB readings to input
// dBm, fitted against a signal generator exactly as the paper calibrates
// its RTL-SDR and USRP against an Agilent E4422B (§2.1).
type Calibration struct {
	// Slope and InterceptDBm define inputDBm = Slope·rawDB + InterceptDBm.
	Slope        float64
	InterceptDBm float64
}

// IdentityCalibration maps raw readings through unchanged.
func IdentityCalibration() Calibration { return Calibration{Slope: 1} }

// Apply converts a raw dB reading to calibrated dBm.
func (c Calibration) Apply(rawDB float64) float64 {
	return c.Slope*rawDB + c.InterceptDBm
}

// CalibrationConfig controls a calibration run.
type CalibrationConfig struct {
	// LevelsDBm are the generator levels swept; defaults to −90…−50 dBm
	// in 5 dB steps (well above every modelled floor, so the fit is not
	// bent by floor compression).
	LevelsDBm []float64
}

// readingsPerLevel is the number of wired readings a calibration run
// takes at each generator level.
const readingsPerLevel = 50

func (c *CalibrationConfig) defaults() {
	if len(c.LevelsDBm) == 0 {
		for l := -90.0; l <= -50; l += 5 {
			c.LevelsDBm = append(c.LevelsDBm, l)
		}
	}
}

// Calibrate sweeps the signal generator across cfg.LevelsDBm, records raw
// readings, and least-squares fits the raw→dBm line. Levels within 6 dB of
// the device's noise floor are excluded from the fit: there the energy
// detector reads floor-plus-signal and the relationship is no longer
// linear.
func Calibrate(d *Device, rng *rand.Rand, cfg CalibrationConfig) (Calibration, error) {
	cfg.defaults()

	var xs, ys []float64 // x: raw dB, y: input dBm
	for _, level := range cfg.LevelsDBm {
		if level < d.spec.NoiseFloorDBm+6 {
			continue
		}
		for i := 0; i < readingsPerLevel; i++ {
			obs, err := d.ObserveWired(rng, level)
			if err != nil {
				return Calibration{}, err
			}
			xs = append(xs, obs.RawDB)
			ys = append(ys, level)
		}
	}
	if len(xs) < 2 {
		return Calibration{}, fmt.Errorf("sensor: calibration needs ≥2 usable levels above the %.0f dBm floor",
			d.spec.NoiseFloorDBm)
	}

	slope, intercept, err := linearFit(xs, ys)
	if err != nil {
		return Calibration{}, fmt.Errorf("sensor: calibration fit: %w", err)
	}
	return Calibration{Slope: slope, InterceptDBm: intercept}, nil
}

// CalibrateAndInstall calibrates d and installs the result.
func CalibrateAndInstall(d *Device, rng *rand.Rand, cfg CalibrationConfig) error {
	cal, err := Calibrate(d, rng, cfg)
	if err != nil {
		return err
	}
	d.SetCalibration(cal)
	return nil
}

// linearFit returns the least-squares line y = slope·x + intercept.
func linearFit(xs, ys []float64) (slope, intercept float64, err error) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("need ≥2 paired samples, got %d/%d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return 0, 0, fmt.Errorf("degenerate fit: raw readings are constant")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}
