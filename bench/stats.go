package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, highest
// first. The percentile rule everywhere in the benchmark: the median,
// plus the highest of these with at least minBeyond samples beyond it.
// The ladder stops at p95 for the gated op_tail_ms: on the ingest lists
// p99 sits on the cliff between ordinary ops and the few a snapshot or
// fsync stalls, and moves ±20 % between identical runs where p95 moves
// ±7 % (bench/README.md has the measurements). p99 is still reported,
// ungated, as upload_p99_ms and scan_p99_us.
var tailLadder = []float64{95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond beyond
// percentile p.
func supports(n int, p float64) bool { return float64(n)*(100-p)/100 >= minBeyond }

// tailPercentile returns the highest ladder percentile that n samples
// support, or 50 when even p75 has fewer than minBeyond samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if supports(n, p) {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts xs in place and returns its nearest-rank median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 50)
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median — the spread the driver computes over ten runs
// (Python's statistics.quantiles(n=4), exclusive method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	var med float64
	if len(s)%2 == 1 {
		med = s[len(s)/2]
	} else {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return (q(3) - q(1)) / med
}

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samples is a latency sample set of one op class.
type samples []time.Duration

// sortedMS returns the samples in ascending milliseconds.
func (s samples) sortedMS() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// A run measures its op list several times: windowsPerRun times a
// workload is set up from scratch and the same seed-generated list is
// replayed inside a timed window, so every window does identical work on
// identical state. Each window is cut into windowSegments equal stretches
// of ops, and every gated metric is computed per stretch, put at the
// speed of a quiet machine (speedref.go), and combined as
//
//	midmean over stretches k of ( best over windows r of x[r][k] )
//
// The inner step compares like with like — stretch k is the same ops at
// the same store size in every window — and keeps the least disturbed
// measurement of it: a GC cycle, a snapshot stall or a burst on the host
// that happens to land there only ever makes a stretch slower, so the
// best of several is the one closest to what the program costs. The
// outer midmean (mean of the middle half) keeps the stretches that were
// disturbed in every window from deciding the run. Per-op cost drifts as
// the store grows, but the drift is the same in every window and every
// run of the list. README.md has the measurements that led here.
const (
	windowsPerRun  = 4
	windowSegments = 8
)

// midmean is the mean of the middle half of xs (NaN when empty).
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// mark is one sample at a segment boundary: when it was taken, how many
// ops had been handed out, the CPU time so far of the benchmark (cpu[0])
// and of each SUT process after it, and the time the window had spent on
// speed-reference samples until then.
type mark struct {
	at  time.Time
	op  int
	cpu []time.Duration
	ref time.Duration
}

// window collects the boundary marks and the speed-reference samples of
// one timed window. probe reads the SUT processes' CPU clocks; nil when
// the SUT runs inside the benchmark process.
type window struct {
	mu         sync.Mutex
	probe      func() ([]time.Duration, error)
	marks      []mark
	refs       []time.Duration
	refTime    time.Duration // sum of refs
	pause      func(bool)
	dbgP, dbgU []time.Duration
	err        error
}

// mark samples the clocks as op index op is about to start.
func (w *window) mark(op int) {
	m := mark{at: time.Now(), op: op, cpu: []time.Duration{selfCPU()}}
	var err error
	if w.probe != nil {
		var sut []time.Duration
		sut, err = w.probe()
		m.cpu = append(m.cpu, sut...)
	}
	w.mu.Lock()
	m.ref = w.refTime
	w.marks = append(w.marks, m)
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// boundary reports whether op i of a window starting at op from with n
// ops opens a new segment.
func boundary(i, from, n int) bool {
	segLen := (n + windowSegments - 1) / windowSegments
	return (i-from)%segLen == 0
}

// refDue reports whether the caller about to start op i of a window
// starting at op from with n ops takes a speed-reference sample first.
func refDue(i, from, n int) bool {
	return (i-from)%max(n/refSamplesPerWindow, 1) == 0
}

// sampleRef takes one speed-reference sample on the calling goroutine,
// with the SUT's processes stopped meanwhile.
func (w *window) sampleRef() {
	if w.pause != nil {
		w.pause(true)
	}
	d := refSample()
	if w.pause != nil {
		w.pause(false)
	}
	w.mu.Lock()
	w.refs = append(w.refs, d)
	w.refTime += d
	w.mu.Unlock()
}

// segment is what one stretch of one window measured: ops handed out,
// wall time, CPU time per clock, and the ascending latencies (ms) of the
// ops that succeeded.
type segment struct {
	ops   int
	wall  time.Duration
	cpu   []time.Duration
	latMS []float64
}

func (s segment) opsPerSecond() float64 { return float64(s.ops) / s.wall.Seconds() }

// cpuPerOpUS is the CPU microseconds per op spent by the clocks cpu[lo:hi].
func (s segment) cpuPerOpUS(lo, hi int) float64 {
	var d time.Duration
	for c := lo; c < hi; c++ {
		d += s.cpu[c]
	}
	return us(d) / float64(s.ops)
}

// timedWindow is one finished window: its segments, its wall time, and
// how much slower than a quiet machine the host ran the speed reference
// during it.
type timedWindow struct {
	segs     []segment
	elapsed  time.Duration
	slowdown float64
}

// finish cuts the window at its marks; lat returns the latency samples
// of the succeeded ops in [from, to). The time spent on speed-reference
// samples is taken out of each segment's wall time and out of the
// benchmark process's own CPU clock (the kernel never waits, so its CPU
// time is its wall time; with several clients the others kept working
// meanwhile, which this ignores).
func (w *window) finish(lat func(from, to int) samples) timedWindow {
	out := timedWindow{slowdown: 1}
	if len(w.refs) > 0 {
		out.slowdown = float64(w.refTime) / float64(len(w.refs)) / float64(refNominal)
	}
	for k := 1; k < len(w.marks); k++ {
		a, b := w.marks[k-1], w.marks[k]
		inRef := b.ref - a.ref
		s := segment{ops: b.op - a.op, wall: b.at.Sub(a.at) - inRef, latMS: lat(a.op, b.op).sortedMS()}
		for c := range b.cpu {
			s.cpu = append(s.cpu, b.cpu[c]-a.cpu[c])
		}
		s.cpu[0] -= inRef
		out.segs = append(out.segs, s)
		out.elapsed += s.wall
	}
	return out
}

// combine reduces one per-segment figure over every window of a run:
// each window's value is put at quiet-machine speed, then the midmean
// over segments of the best over windows is taken. Every lower-is-better
// figure here is a time (divided by the window's slowdown), the
// higher-is-better one a rate (multiplied).
func combine(windows []timedWindow, lowerIsBetter bool, f func(segment) float64) float64 {
	if len(windows) == 0 {
		return math.NaN()
	}
	var perSegment []float64
	for k := range windows[0].segs {
		best := math.NaN()
		for _, w := range windows {
			if k >= len(w.segs) {
				continue
			}
			x := f(w.segs[k])
			if lowerIsBetter {
				x /= w.slowdown
			} else {
				x *= w.slowdown
			}
			if math.IsNaN(best) || (lowerIsBetter && x < best) || (!lowerIsBetter && x > best) {
				best = x
			}
		}
		perSegment = append(perSegment, best)
	}
	return midmean(perSegment)
}

// pooledMS returns every window's latencies together, ascending, as
// observed.
func pooledMS(windows []timedWindow) []float64 {
	var all []float64
	for _, w := range windows {
		for _, s := range w.segs {
			all = append(all, s.latMS...)
		}
	}
	sort.Float64s(all)
	return all
}

// hostSlowdown is the median over a run's windows of their slowdown.
func hostSlowdown(windows []timedWindow) float64 {
	var xs []float64
	for _, w := range windows {
		xs = append(xs, w.slowdown)
	}
	return median(xs)
}

// putEndToEnd reports the gated metrics of a run from its set-up times
// and windows. The SUT's CPU clocks are cpu[sutLo:sutHi] of every mark.
// Set-up r ran just before window r and is put at quiet-machine speed by
// that window's slowdown. The tail percentile follows the ladder rule
// over the samples of all windows together; it is evaluated per segment
// (nearest rank) and combined like every other figure.
func putEndToEnd(m metricSet, setups []float64, windows []timedWindow, sutLo, sutHi int) {
	const atQuiet = "at quiet-machine speed"
	how := fmt.Sprintf("midmean over %d segments of the best of %d windows, %s", windowSegments, len(windows), atQuiet)
	corrected := make([]float64, len(setups))
	for r, s := range setups {
		corrected[r] = s / windows[r].slowdown
	}
	m.put("setup_s", median(corrected), len(setups), "median, "+atQuiet)
	m.put("ops_per_s", combine(windows, false, segment.opsPerSecond), 0, how)
	n := len(pooledMS(windows))
	tail := tailPercentile(n)
	m.put("op_p50_ms", combine(windows, true, func(s segment) float64 { return percentile(s.latMS, 50) }), n, how)
	m.put("op_tail_ms", combine(windows, true, func(s segment) float64 { return percentile(s.latMS, tail) }), n, fmt.Sprintf("p%g, %s", tail, how))
	m.put("sut_cpu_us_per_op", combine(windows, true, func(s segment) float64 { return s.cpuPerOpUS(sutLo, sutHi) }), 0, how)
	m.put("bench.host_slowdown", hostSlowdown(windows), len(windows), "median of windows")
}

// windowJSON is one window in the -out report, as observed: the raw
// material of the gated figures.
type windowJSON struct {
	HostSlowdown float64       `json:"host_slowdown"`
	Segments     []segmentJSON `json:"segments"`
}

type segmentJSON struct {
	Ops     int       `json:"ops"`
	WallS   float64   `json:"wall_s"`
	CPUUS   []float64 `json:"cpu_us"` // the benchmark process, then each SUT process
	P50MS   float64   `json:"p50_ms"`
	TailMS  float64   `json:"tail_ms"`
	Samples int       `json:"latency_samples"`
}

func dumpWindows(windows []timedWindow) []windowJSON {
	tail := tailPercentile(len(pooledMS(windows)))
	out := make([]windowJSON, len(windows))
	for r, w := range windows {
		out[r].HostSlowdown = w.slowdown
		for _, s := range w.segs {
			j := segmentJSON{Ops: s.ops, WallS: s.wall.Seconds(), Samples: len(s.latMS)}
			if len(s.latMS) > 0 { // NaN does not marshal
				j.P50MS, j.TailMS = percentile(s.latMS, 50), percentile(s.latMS, tail)
			}
			for _, c := range s.cpu {
				j.CPUUS = append(j.CPUUS, us(c))
			}
			out[r].Segments = append(out[r].Segments, j)
		}
	}
	return out
}
