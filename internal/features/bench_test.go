package features

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/sensor"
)

// coldPoolCaptures × 4 KB of I/Q is 64 MB, larger than any last-level
// cache this runs on — like the 37 MB replay pool of the wsd_scan
// workload, and like fresh USB samples on the device.
const coldPoolCaptures = 16384

var sinkSignal Signal

// BenchmarkFromObservation256 is the full per-capture extraction cost
// (256 I/Q samples, §2.1; all three features): warm re-reads one cached
// capture, cold walks a pool that does not fit in cache.
func BenchmarkFromObservation256(b *testing.B) {
	benchCaptures(b, FromObservation)
}

// BenchmarkMeasure256 is what the WSD pays per capture for the shipped
// location + RSS + CFT model: energy and the DC bin, no transform.
func BenchmarkMeasure256(b *testing.B) {
	benchCaptures(b, SetLocationRSSCFT.Measure)
}

func benchCaptures(b *testing.B, extract func(sensor.Observation, sensor.Calibration) (Signal, error)) {
	rng := rand.New(rand.NewSource(1))
	d := sensor.NewDevice(sensor.RTLSDR())
	if err := sensor.CalibrateAndInstall(d, rng, sensor.CalibrationConfig{}); err != nil {
		b.Fatal(err)
	}
	cal := d.Calibration()
	for _, bc := range []struct {
		name string
		pool int
	}{{"warm", 1}, {"cold", coldPoolCaptures}} {
		b.Run(bc.name, func(b *testing.B) {
			first, err := d.Observe(rng, -85, math.Inf(-1))
			if err != nil {
				b.Fatal(err)
			}
			// Timing does not depend on the sample values, so the pool
			// is copies of one capture, each with its own memory.
			pool := make([]sensor.Observation, bc.pool)
			for i := range pool {
				pool[i] = first
				pool[i].IQ = append([]complex128(nil), first.IQ...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sig, err := extract(pool[i%len(pool)], cal)
				if err != nil {
					b.Fatal(err)
				}
				sinkSignal = sig
			}
		})
	}
}
