package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Trace is one in-flight request's trace: an ID shared across processes
// plus the spans this process recorded for it. Spans append themselves
// on End; when the root span ends the trace is offered to the flight
// recorder. A Trace is created via Registry.StartTrace and never reused.
type Trace struct {
	id       TraceID
	root     SpanID
	endpoint string
	start    time.Time
	sampled  bool
	rec      *Recorder

	mu       sync.Mutex
	spans    []SpanData
	errored  bool
	finished bool
}

func (t *Trace) setErrored() {
	t.mu.Lock()
	t.errored = true
	t.mu.Unlock()
}

func (t *Trace) addSpan(rec SpanData) {
	t.mu.Lock()
	if !t.finished {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// finish seals the trace and hands it to the recorder. Called exactly
// once, when the root span ends; spans ending after that (a leaked
// goroutine outliving its request) are dropped rather than mutating a
// retained trace.
func (t *Trace) finish(end time.Time) {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	spans, errored := t.spans, t.errored
	t.mu.Unlock()
	if t.rec == nil || !t.sampled {
		return
	}
	t.rec.record(&TraceData{
		TraceID:  t.id.String(),
		Endpoint: t.endpoint,
		Start:    t.start,
		Duration: end.Sub(t.start),
		Errored:  errored,
		Spans:    spans,
	})
}

// StartTrace begins a request-scoped trace rooted at a span named name
// (conventionally the route). parent, when valid, supplies the trace ID
// and the remote parent span (the X-Waldo-Trace header of an incoming
// request); otherwise a fresh sampled trace is minted. The returned root
// span's Context() is what goes back out in response headers and onward
// in fan-out requests. Completion is reported to the registry's flight
// recorder, if one is attached.
func (r *Registry) StartTrace(name string, parent SpanContext) *Span {
	if r == nil {
		return nil
	}
	tr := &Trace{
		id:       parent.Trace,
		endpoint: name,
		start:    time.Now(),
		sampled:  parent.Sampled,
		rec:      r.FlightRecorder(),
	}
	if !parent.Valid() {
		tr.id = NewTraceID()
		tr.sampled = true
	}
	sp := newSpan(r, r.spanNodeFor(name), tr, parent.Span)
	tr.root = sp.id
	return sp
}

// TraceData is one completed, retained trace as served by /debug/traces.
type TraceData struct {
	TraceID  string        `json:"trace_id"`
	Endpoint string        `json:"endpoint"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Errored  bool          `json:"errored,omitempty"`
	// Class is how the recorder retained the trace: "error", "slow", or
	// "recent".
	Class string     `json:"class"`
	Spans []SpanData `json:"spans"`
}

// SpanData is one completed span within a retained trace.
type SpanData struct {
	Name     string        `json:"name"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Retention classes. Separate fixed-size rings per class are the whole
// tail-sampling policy: healthy high-rate traffic can only ever evict
// other healthy traces, so errored traces and slow-percentile traces
// survive any amount of sampling pressure until that class's own ring
// wraps.
const (
	classError = iota
	classSlow
	classRecent
	numClasses
)

var classNames = [numClasses]string{"error", "slow", "recent"}

// slowWindowSize is how many recent durations per endpoint feed the
// slow-percentile threshold.
const slowWindowSize = 256

// slowQuantile is the per-endpoint duration quantile at or above which
// a trace is classified slow.
const slowQuantile = 0.95

// RecorderOptions parameterizes NewRecorder. The zero value is ready:
// 256 traces per class, slow = p95 per endpoint, thresholds recomputed
// every second.
type RecorderOptions struct {
	// Capacity is the per-class ring size; default 256.
	Capacity int
	// MinSamples is how many durations an endpoint must have produced
	// before slow classification kicks in (a cold endpoint has no
	// meaningful percentile); default 32.
	MinSamples int
	// RecomputeInterval is how often the background goroutine refreshes
	// the per-endpoint slow thresholds; default 1s.
	RecomputeInterval time.Duration
	// Metrics, when set, receives the waldo_trace_* series.
	Metrics *Registry
}

// endpointWindow is a fixed ring of one endpoint's recent durations in
// seconds.
type endpointWindow struct {
	durs []float64
	next int
	full bool
}

func (w *endpointWindow) add(v float64) {
	if len(w.durs) < slowWindowSize {
		w.durs = append(w.durs, v)
		return
	}
	w.durs[w.next] = v
	w.next = (w.next + 1) % slowWindowSize
	w.full = true
}

// Recorder is the in-memory flight recorder: fixed-size rings of recent
// traces, tail-sampled so errored and slow traces always survive
// healthy-traffic pressure. The record path is one short mutex-protected
// section (classification + ring slot write); rendering happens only on
// /debug/traces reads. Close stops the threshold-recompute goroutine;
// records after Close are dropped. Nil-safe like the rest of the
// package: every method on a nil *Recorder no-ops.
type Recorder struct {
	opts RecorderOptions

	mu         sync.Mutex
	rings      [numClasses][]*TraceData
	next       [numClasses]int
	windows    map[string]*endpointWindow
	thresholds map[string]time.Duration
	closed     bool

	done      chan struct{}
	loopWG    sync.WaitGroup
	closeOnce sync.Once

	recorded [numClasses]*Counter
	evicted  [numClasses]*Counter
}

// NewRecorder builds and starts a flight recorder (including its
// background threshold-recompute goroutine — pair with Close).
func NewRecorder(opts RecorderOptions) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.MinSamples <= 0 {
		opts.MinSamples = 32
	}
	if opts.RecomputeInterval <= 0 {
		opts.RecomputeInterval = time.Second
	}
	rec := &Recorder{
		opts:       opts,
		windows:    make(map[string]*endpointWindow),
		thresholds: make(map[string]time.Duration),
		done:       make(chan struct{}),
	}
	for c := 0; c < numClasses; c++ {
		rec.rings[c] = make([]*TraceData, opts.Capacity)
		rec.recorded[c] = opts.Metrics.Counter("waldo_trace_recorded_total",
			"Traces retained by the flight recorder, by retention class.", "class", classNames[c])
		rec.evicted[c] = opts.Metrics.Counter("waldo_trace_evicted_total",
			"Retained traces overwritten by newer ones of the same class.", "class", classNames[c])
	}
	rec.loopWG.Add(1)
	go rec.loop()
	return rec
}

// Close stops the recorder's background goroutine and drops subsequent
// records. Retained traces stay readable. Safe to call more than once
// and from any goroutine.
func (rec *Recorder) Close() {
	if rec == nil {
		return
	}
	rec.closeOnce.Do(func() {
		rec.mu.Lock()
		rec.closed = true
		rec.mu.Unlock()
		close(rec.done)
	})
	rec.loopWG.Wait()
}

func (rec *Recorder) loop() {
	defer rec.loopWG.Done()
	t := time.NewTicker(rec.opts.RecomputeInterval)
	defer t.Stop()
	for {
		select {
		case <-rec.done:
			return
		case <-t.C:
			rec.recompute()
		}
	}
}

// recompute refreshes the per-endpoint slow thresholds from the duration
// windows. Sorting happens on copies outside the lock.
func (rec *Recorder) recompute() {
	rec.mu.Lock()
	copies := make(map[string][]float64, len(rec.windows))
	for ep, w := range rec.windows {
		if len(w.durs) < rec.opts.MinSamples {
			continue
		}
		copies[ep] = append([]float64(nil), w.durs...)
	}
	rec.mu.Unlock()

	fresh := make(map[string]time.Duration, len(copies))
	for ep, durs := range copies {
		sort.Float64s(durs)
		idx := int(slowQuantile * float64(len(durs)))
		if idx >= len(durs) {
			idx = len(durs) - 1
		}
		fresh[ep] = time.Duration(durs[idx] * float64(time.Second))
	}

	rec.mu.Lock()
	for ep, th := range fresh {
		rec.thresholds[ep] = th
	}
	rec.mu.Unlock()
}

// record classifies and retains one completed trace.
func (rec *Recorder) record(t *TraceData) {
	if rec == nil {
		return
	}
	secs := t.Duration.Seconds()
	rec.mu.Lock()
	if rec.closed {
		rec.mu.Unlock()
		return
	}
	w := rec.windows[t.Endpoint]
	if w == nil {
		w = &endpointWindow{}
		rec.windows[t.Endpoint] = w
	}
	w.add(secs)
	class := classRecent
	if t.Errored {
		class = classError
	} else if th, ok := rec.thresholds[t.Endpoint]; ok && t.Duration >= th {
		class = classSlow
	}
	t.Class = classNames[class]
	slot := rec.next[class]
	evicting := rec.rings[class][slot] != nil
	rec.rings[class][slot] = t
	rec.next[class] = (slot + 1) % len(rec.rings[class])
	rec.mu.Unlock()
	rec.recorded[class].Inc()
	if evicting {
		rec.evicted[class].Inc()
	}
}

// TraceFilter selects traces from Snapshot/the HTTP handler.
type TraceFilter struct {
	// Endpoint, when non-empty, keeps only traces whose root route
	// matches exactly.
	Endpoint string
	// MinDuration, when positive, keeps only traces at least this slow.
	MinDuration time.Duration
	// Class, when non-empty, keeps only one retention class
	// ("error", "slow", "recent").
	Class string
	// TraceID, when non-empty, keeps only the trace with this ID.
	TraceID string
}

func (f TraceFilter) match(t *TraceData) bool {
	if f.Endpoint != "" && t.Endpoint != f.Endpoint {
		return false
	}
	if f.MinDuration > 0 && t.Duration < f.MinDuration {
		return false
	}
	if f.Class != "" && t.Class != f.Class {
		return false
	}
	if f.TraceID != "" && t.TraceID != f.TraceID {
		return false
	}
	return true
}

// Snapshot returns the retained traces matching f, newest first. The
// returned TraceData values are retained by the recorder — treat them
// as read-only.
func (rec *Recorder) Snapshot(f TraceFilter) []*TraceData {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	var out []*TraceData
	for c := 0; c < numClasses; c++ {
		for _, t := range rec.rings[c] {
			if t != nil && f.match(t) {
				out = append(out, t)
			}
		}
	}
	rec.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Handler serves the recorder at GET /debug/traces.
//
// Query parameters: endpoint= (exact route), min_ms= (minimum duration,
// float milliseconds), class= (error|slow|recent), trace= (exact trace
// ID), limit= (default 50), format=json|text (default json; text is the
// human tree rendering).
func (rec *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		f := TraceFilter{
			Endpoint: q.Get("endpoint"),
			Class:    q.Get("class"),
			TraceID:  q.Get("trace"),
		}
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms < 0 {
				http.Error(w, "bad min_ms "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
			f.MinDuration = time.Duration(ms * float64(time.Millisecond))
		}
		limit := 50
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
			limit = n
		}
		traces := rec.Snapshot(f)
		if len(traces) > limit {
			traces = traces[:limit]
		}
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, t := range traces {
				writeTraceText(w, t)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Count  int          `json:"count"`
			Traces []*TraceData `json:"traces"`
		}{len(traces), traces})
	})
}

// writeTraceText renders one trace as an indented span tree.
func writeTraceText(w http.ResponseWriter, t *TraceData) {
	status := "ok"
	if t.Errored {
		status = "ERROR"
	}
	fmt.Fprintf(w, "trace %s  %s  %s  %s  class=%s  %s\n",
		t.TraceID, t.Endpoint, t.Start.Format(time.RFC3339Nano),
		t.Duration, t.Class, status)
	children := make(map[string][]SpanData, len(t.Spans))
	local := make(map[string]bool, len(t.Spans))
	for _, s := range t.Spans {
		local[s.SpanID] = true
	}
	var roots []SpanData
	for _, s := range t.Spans {
		if s.ParentID != "" && local[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	var render func(s SpanData, depth int)
	render = func(s SpanData, depth int) {
		fmt.Fprintf(w, "  %*s%s  +%s  %s", depth*2, "", s.Name, s.Offset, s.Duration)
		for _, a := range s.Attrs {
			fmt.Fprintf(w, "  %s=%s", a.Key, a.Value)
		}
		if s.Error != "" {
			fmt.Fprintf(w, "  error=%q", s.Error)
		}
		fmt.Fprintln(w)
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Offset < kids[j].Offset })
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Offset < roots[j].Offset })
	for _, s := range roots {
		render(s, 1)
	}
}
