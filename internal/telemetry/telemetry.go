// Package telemetry is Waldo's dependency-free metrics and tracing
// subsystem. The ROADMAP's production-scale spectrum database is an
// always-on service (paper §6 frames Waldo as a "continuous realtime
// stream of spectrum scans"), so its ingest and query paths must be
// observable before they can be scaled: this package provides a
// concurrent registry of counters, gauges, and histograms, Prometheus
// text exposition, and a lightweight span hook for timing nested
// operations (model build, clustering, classification, upload screening).
//
// Design constraints:
//
//   - Stdlib only — the repo bakes in no third-party modules.
//   - Cheap enough to stay on by default: counters and gauges are a
//     single atomic op, histograms take one short mutex-protected pass
//     (see bench_test.go; the budget is < ~100 ns/op).
//   - Nil-safe: every method on a nil *Registry, *Counter, *Gauge,
//     *Histogram, or *Span is a no-op, so instrumented code never
//     branches on "is telemetry enabled".
//
// Handles are meant to be looked up once and held: Registry lookups take
// a lock and build label keys; Inc/Set/Observe on the returned handle is
// the hot path.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric (requests served, uploads
// rejected). The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (in-flight requests, store
// size). The zero value is ready to use and reads 0.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records a distribution into fixed cumulative buckets
// (Prometheus semantics: bucket i counts observations ≤ Bounds[i], with a
// final +Inf bucket). One mutex per histogram keeps Observe short and
// uncontended across distinct metrics.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
	// exemplars holds the most recent traced observation per bucket
	// (lazily allocated on the first ObserveWithExemplar), linking
	// /metrics latency buckets to trace IDs in the flight recorder.
	exemplars []Exemplar
}

// Exemplar links one bucket of a histogram to a recently observed traced
// request: its value, the trace ID to look up in /debug/traces, and the
// observation time.
type Exemplar struct {
	Value   float64
	TraceID TraceID
	When    time.Time
}

// DefLatencyBuckets covers 100 µs – ~100 s in quarter-decade steps, wide
// enough for both HTTP round trips and multi-second model rebuilds.
var DefLatencyBuckets = ExpBuckets(100e-6, math.Sqrt(math.Sqrt(10)), 24)

// DefCountBuckets covers 1 – 4096 in powers of two (stream lengths,
// batch sizes).
var DefCountBuckets = ExpBuckets(1, 2, 13)

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search outside the lock: bounds are immutable.
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveWithExemplar records one value and remembers (value, trace,
// when) as the containing bucket's exemplar, so a p99 bucket in /metrics
// names a concrete trace to pull from the flight recorder. Same single
// short critical section as Observe.
func (h *Histogram) ObserveWithExemplar(v float64, trace TraceID, when time.Time) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.counts))
	}
	h.exemplars[i] = Exemplar{Value: v, TraceID: trace, When: when}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds:    h.bounds, // immutable after construction
		Counts:    append([]uint64(nil), h.counts...),
		Count:     h.count,
		Sum:       h.sum,
		Min:       h.min,
		Max:       h.max,
		Exemplars: append([]Exemplar(nil), h.exemplars...),
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations in (Bounds[i-1], Bounds[i]], with Counts[len(Bounds)]
	// the +Inf bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
	// Exemplars, when non-empty, holds one exemplar per bucket (zero
	// entries for buckets that never saw a traced observation).
	Exemplars []Exemplar
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, clamped to the observed min/max so thin
// tails don't report a bucket bound nothing reached.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			var lo, hi float64
			if i == 0 {
				lo, hi = s.Min, s.Bounds[0]
			} else if i == len(s.Bounds) {
				lo, hi = s.Bounds[len(s.Bounds)-1], s.Max
			} else {
				lo, hi = s.Bounds[i-1], s.Bounds[i]
			}
			lo = math.Max(lo, s.Min)
			hi = math.Min(hi, s.Max)
			if hi <= lo {
				return hi
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Max
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is all instances of one metric name across label values.
type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string
	bounds     []float64 // histograms only

	mu        sync.Mutex
	instances map[string]any // label-value key → *Counter | *Gauge | *Histogram
}

// Registry is a concurrent collection of metric families. The zero value
// is not usable; call New. All methods are safe for concurrent use, and
// all methods on a nil *Registry are no-ops returning nil handles (whose
// methods are in turn no-ops).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// spanRoots interns root span paths → *spanNode (see trace.go), so
	// the span hot path never rebuilds strings or re-walks families.
	spanRoots sync.Map

	// recorder is the flight recorder traces started through this
	// registry report to (see recorder.go); nil disables retention
	// without disabling trace propagation.
	recorder atomic.Pointer[Recorder]
}

// SetFlightRecorder attaches a flight recorder: every trace started via
// StartTrace on this registry is offered to it on completion. Pass nil
// to detach.
func (r *Registry) SetFlightRecorder(rec *Recorder) {
	if r == nil {
		return
	}
	r.recorder.Store(rec)
}

// FlightRecorder returns the attached flight recorder, or nil.
func (r *Registry) FlightRecorder() *Recorder {
	if r == nil {
		return nil
	}
	return r.recorder.Load()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labels must be alternating name, value pairs; returns names, values.
func splitLabels(labels []string) ([]string, []string) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	n := len(labels) / 2
	names := make([]string, n)
	values := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = labels[2*i]
		values[i] = labels[2*i+1]
	}
	return names, values
}

func instanceKey(values []string) string {
	return strings.Join(values, "\x00")
}

// lookup finds or creates a family, checking type/label consistency.
func (r *Registry) lookup(name, help string, typ metricType, labelNames []string, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name:       name,
				help:       help,
				typ:        typ,
				labelNames: append([]string(nil), labelNames...),
				bounds:     append([]float64(nil), bounds...),
				instances:  make(map[string]any),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %v, requested as %v", name, f.typ, typ))
	}
	if len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("telemetry: %s registered with labels %v, requested with %v",
			name, f.labelNames, labelNames))
	}
	for i := range labelNames {
		if f.labelNames[i] != labelNames[i] {
			panic(fmt.Sprintf("telemetry: %s registered with labels %v, requested with %v",
				name, f.labelNames, labelNames))
		}
	}
	return f
}

// Counter returns (creating on first use) the counter for name and the
// given alternating label name/value pairs. Hold the returned handle;
// don't re-look it up per increment.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	names, values := splitLabels(labels)
	f := r.lookup(name, help, typeCounter, names, nil)
	key := instanceKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.instances[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.instances[key] = c
	return c
}

// Gauge returns (creating on first use) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	names, values := splitLabels(labels)
	f := r.lookup(name, help, typeGauge, names, nil)
	key := instanceKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.instances[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.instances[key] = g
	return g
}

// Histogram returns (creating on first use) the histogram for name and
// labels. bounds applies on first registration of the family (nil means
// DefLatencyBuckets); later calls reuse the registered bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	names, values := splitLabels(labels)
	f := r.lookup(name, help, typeHistogram, names, bounds)
	key := instanceKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.instances[key]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(f.bounds)
	f.instances[key] = h
	return h
}
