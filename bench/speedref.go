package main

import "time"

// The speed reference. The machines this benchmark runs on are a few
// hyperthreads of a shared host: for minutes at a time a neighbour on the
// same core makes every instruction stream here 30-50 % slower, in bursts
// well under a second long, and nothing inside a run can wait that out
// (README.md has the measurements: the same binary and inputs spread 9-46 %
// between runs, whichever statistic was taken). So every window also times
// a fixed piece of work that belongs to the benchmark, not to the program —
// refPasses passes of a multiply-add kernel over a 256 KB array, eight
// independent sums, nothing but arithmetic and L2 reads — about fifty
// times, spread evenly over the window's ops. The mean of those samples
// over refNominal is the window's slowdown: how much slower than a quiet
// machine the host ran this window. The gated figures of a window are
// divided by it (rates multiplied), i.e. reported at the speed of a quiet
// machine; bench.host_slowdown reports the factor, so the numbers as
// observed can be had back.
//
// The kernel reads the clock only around all its passes, so a burst
// shorter than a sample still counts in proportion; a minimum over short
// samples finds the quiet gaps inside a burst and reads "quiet" (it did).

const (
	// refPasses passes of eight sweeps over the array, ~113 µs each: one
	// sample takes about 2.7 ms on a quiet machine.
	refPasses = 24
	// refSamplesPerWindow samples are taken per window, at evenly spaced ops.
	refSamplesPerWindow = 48
	// refNominal is one sample's duration on the 2.1 GHz Xeon VM the
	// benchmark was sized on while it is quiet (the fastest of 3 000
	// samples take 2 710 µs). Another machine type scales every figure by
	// one constant, which no comparison of two commits on that machine sees.
	refNominal = 2700 * time.Microsecond
)

var (
	refArray = func() []float64 {
		a := make([]float64, 32<<10)
		for i := range a {
			a[i] = float64(i%977) * 1.0001
		}
		return a
	}()
	refSink float64
)

// refSample times refPasses passes of the kernel.
func refSample() time.Duration {
	a := refArray
	t0 := time.Now()
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for pass := 0; pass < refPasses*8; pass++ {
		for i := 0; i+8 <= len(a); i += 8 {
			s0 += a[i] * 1.0001
			s1 += a[i+1] * 1.0002
			s2 += a[i+2] * 1.0003
			s3 += a[i+3] * 1.0004
			s4 += a[i+4] * 1.0005
			s5 += a[i+5] * 1.0006
			s6 += a[i+6] * 1.0007
			s7 += a[i+7] * 1.0008
		}
	}
	d := time.Since(t0)
	refSink += s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
	return d
}
