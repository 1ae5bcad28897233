package telemetry

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
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
	spans    []spanRecord
	errored  bool
	finished bool
}

// spanRecord is one completed span as its trace keeps it: the IDs stay
// binary until a /debug/traces read renders the trace (TraceData.render),
// so a span's End formats nothing.
type spanRecord struct {
	name        string
	id, parent  SpanID
	offset, dur time.Duration
	attrs       []Attr
	err         string
}

func (t *Trace) setErrored() {
	t.mu.Lock()
	t.errored = true
	t.mu.Unlock()
}

func (t *Trace) addSpan(rec spanRecord) {
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
		Endpoint: t.endpoint,
		Start:    t.start,
		Duration: end.Sub(t.start),
		Errored:  errored,
		id:       t.id,
		raw:      spans,
	})
}

// StartTrace begins a request-scoped trace rooted at a span named name
// (conventionally the route). parent, when valid, supplies the trace ID
// and the remote parent span (the X-Waldo-Trace header of an incoming
// request); otherwise a fresh sampled trace is minted. The returned root
// span's Context() is what goes back out in response headers and onward
// in fan-out requests. Completion is reported to the registry's flight
// recorder.
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

	// What the recorder keeps until the trace is first read: TraceID and
	// Spans are rendered from them then (render), once.
	id       TraceID
	raw      []spanRecord
	rendered bool
}

// render fills TraceID and Spans from the binary form the recorder kept,
// the first time a read returns t. Called with the recorder's renderMu
// held, not its mu, so a /debug/traces read holds up no request's record.
func (t *TraceData) render() {
	if t.rendered {
		return
	}
	t.rendered = true
	t.TraceID = t.id.String()
	if len(t.raw) > 0 {
		t.Spans = make([]SpanData, len(t.raw))
	}
	for i, s := range t.raw {
		t.Spans[i] = SpanData{Name: s.name, SpanID: s.id.String(), Offset: s.offset,
			Duration: s.dur, Attrs: s.attrs, Error: s.err}
		if !s.parent.IsZero() {
			t.Spans[i].ParentID = s.parent.String()
		}
	}
	t.raw = nil
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

// ringCapacity is each retention class's ring size.
const ringCapacity = 256

// slowWindowSize is how many recent durations per endpoint feed the
// slow-percentile threshold.
const slowWindowSize = 256

// slowQuantile is the per-endpoint duration quantile at or above which
// a trace is classified slow.
const slowQuantile = 0.95

// minSamples is how many durations an endpoint must have produced
// before slow classification kicks in: a cold endpoint has no
// meaningful percentile.
const minSamples = 32

// endpointWindow is a fixed ring of one endpoint's recent durations,
// and the slow threshold last computed from it.
type endpointWindow struct {
	durs      []time.Duration
	next      int
	threshold time.Duration // valid once len(durs) >= minSamples
}

// add appends v and reports whether the threshold is due a refresh:
// when the window first reaches minSamples, and each time it turns over.
func (w *endpointWindow) add(d time.Duration) bool {
	if len(w.durs) < slowWindowSize {
		w.durs = append(w.durs, d)
		return len(w.durs) == minSamples || len(w.durs) == slowWindowSize
	}
	w.durs[w.next] = d
	w.next = (w.next + 1) % slowWindowSize
	return w.next == 0
}

// Recorder is the in-memory flight recorder: fixed-size rings of recent
// traces, tail-sampled so errored and slow traces always survive
// healthy-traffic pressure. The record path is one short mutex-protected
// section (classification + ring slot write, and once per window
// turnover a sort of the endpoint's 256 durations into a reused
// scratch slice); rendering happens only on /debug/traces reads. Each
// Registry makes its own on first use (see Registry.FlightRecorder).
// Nil-safe like the rest of the package: every method on a nil
// *Recorder no-ops.
type Recorder struct {
	mu       sync.Mutex
	renderMu sync.Mutex // serializes the reads that render retained traces
	rings    [numClasses][]*TraceData
	next     [numClasses]int
	windows  map[string]*endpointWindow
	scratch  []time.Duration

	recorded [numClasses]*Counter
	evicted  [numClasses]*Counter
}

func newRecorder(r *Registry) *Recorder {
	rec := &Recorder{
		windows: make(map[string]*endpointWindow),
		scratch: make([]time.Duration, slowWindowSize),
	}
	for c := 0; c < numClasses; c++ {
		rec.rings[c] = make([]*TraceData, ringCapacity)
		rec.recorded[c] = r.Counter("waldo_trace_recorded_total",
			"Traces retained by the flight recorder, by retention class.", "class", classNames[c])
		rec.evicted[c] = r.Counter("waldo_trace_evicted_total",
			"Retained traces overwritten by newer ones of the same class.", "class", classNames[c])
	}
	return rec
}

// refresh recomputes w's slow threshold. Called with rec.mu held.
func (rec *Recorder) refresh(w *endpointWindow) {
	durs := rec.scratch[:len(w.durs)]
	copy(durs, w.durs)
	slices.Sort(durs)
	w.threshold = durs[min(int(slowQuantile*float64(len(durs))), len(durs)-1)]
}

// record classifies and retains one completed trace.
func (rec *Recorder) record(t *TraceData) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	w := rec.windows[t.Endpoint]
	if w == nil {
		w = &endpointWindow{durs: make([]time.Duration, 0, slowWindowSize)}
		rec.windows[t.Endpoint] = w
	}
	if w.add(t.Duration) {
		rec.refresh(w)
	}
	class := classRecent
	if t.Errored {
		class = classError
	} else if len(w.durs) >= minSamples && t.Duration >= w.threshold {
		class = classSlow
	}
	t.Class = classNames[class]
	slot := rec.next[class]
	evicting := rec.rings[class][slot] != nil
	rec.rings[class][slot] = t
	rec.next[class] = (slot + 1) % ringCapacity
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

// match reports whether f keeps t; id is f.TraceID parsed. Called with
// the recorder's lock held, so it reads only what record set.
func (f TraceFilter) match(t *TraceData, id TraceID) bool {
	if f.Endpoint != "" && t.Endpoint != f.Endpoint {
		return false
	}
	if f.MinDuration > 0 && t.Duration < f.MinDuration {
		return false
	}
	if f.Class != "" && t.Class != f.Class {
		return false
	}
	if f.TraceID != "" && t.id != id {
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
	var id TraceID
	if f.TraceID != "" {
		b, err := hex.DecodeString(f.TraceID)
		if err != nil || len(b) != len(id) || hex.EncodeToString(b) != f.TraceID {
			return nil // no trace's ID renders to it
		}
		copy(id[:], b)
	}
	rec.mu.Lock()
	var out []*TraceData
	for c := 0; c < numClasses; c++ {
		for _, t := range rec.rings[c] {
			if t != nil && f.match(t, id) {
				out = append(out, t)
			}
		}
	}
	rec.mu.Unlock()
	rec.renderMu.Lock()
	for _, t := range out {
		t.render()
	}
	rec.renderMu.Unlock()
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
