package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own files, around
// calls into each layer's public functions; nothing is traced inside the
// program. Spans stay in memory and are written out at the end.

// span is one timed call. Parent is the span that caused it (0 = none);
// spans of one replayed op share Op — including the layer calls under a
// handler (decode, submit, append), which cannot be timed inside it from
// outside and so run again on the same input right after it returns.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans; safe for the gateway's parallel fan-out legs.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// begin opens a span and returns its ID (0 while the tracer is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfNS is a span's duration minus the part of its interval that its
// children cover (their union: a gateway's fan-out legs run in parallel).
func selfNS(parent span, children []span) int64 {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, edge := int64(0), parent.StartNS
	for _, c := range kids {
		lo, hi := max(c.StartNS, edge), min(c.EndNS, parent.EndNS)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.EndNS - parent.StartNS - covered
}

// durations returns, per span name, every span's duration and self time
// in nanoseconds.
func (t *tracer) durations() (total, self map[string][]float64) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		total[s.Name] = append(total[s.Name], float64(s.EndNS-s.StartNS))
		self[s.Name] = append(self[s.Name], float64(selfNS(s, children[s.ID])))
	}
	return total, self
}

// timed runs fn under n spans named name; each span covers batch calls
// (batch > 1 for calls too short to time one at a time). The per-call
// figure is the median span divided by batch, via putSpanMedian.
func (t *tracer) timed(name string, n, batch int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		id := t.begin(name, 0, i)
		for b := 0; b < batch; b++ {
			if err := fn(i*batch + b); err != nil {
				return err
			}
		}
		t.end(id)
	}
	return nil
}

// putSpanMedian reports the median of the durations (or self times)
// recorded under a span name, divided by nsPerUnit: nanoseconds per
// reported unit times the calls one span covers.
func putSpanMedian(m metricSet, metricName string, byName map[string][]float64, spanName string, nsPerUnit float64) {
	xs := byName[spanName]
	if len(xs) == 0 {
		return
	}
	m.put(metricName, median(append([]float64(nil), xs...))/nsPerUnit, len(xs), "")
}

// allocsPerOp is mallocs per call of fn over n calls on this goroutine,
// from runtime.MemStats deltas. Only meaningful while nothing else
// allocates: the traced run is single-goroutine.
func allocsPerOp(n int, fn func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
