package telemetry

import (
	"context"
	"sync"
	"time"
)

// Span times one operation, optionally nested under a parent. Durations
// land in the registry's waldo_span_seconds histogram, labeled with the
// slash-joined span path ("retrain/build"), so nested phase costs (model
// build, clustering, classification, upload screening) show up in
// /metrics without a tracing backend.
//
// Beyond the histogram, a span may belong to a request-scoped trace
// (StartTrace / StartSpanCtx): it then carries a span ID and parent,
// accepts attributes and an error status, and its completion is recorded
// into the trace's span list for the flight recorder (see recorder.go).
//
// Spans are nil-safe: StartSpan on a nil registry returns a nil *Span
// whose Child, SetAttr, Fail, and End are no-ops.
//
// Hot path: span paths and their histogram handles are interned in a
// tree of spanNodes, so steady-state StartSpan and Child do lock-free
// sync.Map loads instead of building slash-joined strings and re-walking
// the registry per call, and completed spans return to a pool. End
// invalidates the span: don't retain or reuse it afterwards.
type Span struct {
	reg   *Registry
	node  *spanNode
	start time.Time

	// Trace attachment (nil/zero for metric-only spans).
	tr     *Trace
	id     SpanID
	parent SpanID
	attrs  []Attr
	errMsg string
	ended  bool
}

// Attr is one key/value annotation on a traced span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// spanNode is one interned span path: the slash-joined path string, its
// histogram handle (resolved once), and the children discovered so far.
type spanNode struct {
	path     string
	hist     *Histogram
	children sync.Map // child name → *spanNode
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

const spanMetric = "waldo_span_seconds"
const spanHelp = "Duration of traced operations, labeled by span path."

// spanNodeFor interns a root-level span path.
func (r *Registry) spanNodeFor(name string) *spanNode {
	if v, ok := r.spanRoots.Load(name); ok {
		return v.(*spanNode)
	}
	n := &spanNode{path: name, hist: r.Histogram(spanMetric, spanHelp, nil, "span", name)}
	v, _ := r.spanRoots.LoadOrStore(name, n)
	return v.(*spanNode)
}

// child interns a nested span path under n.
func (n *spanNode) child(r *Registry, name string) *spanNode {
	if v, ok := n.children.Load(name); ok {
		return v.(*spanNode)
	}
	path := n.path + "/" + name
	c := &spanNode{path: path, hist: r.Histogram(spanMetric, spanHelp, nil, "span", path)}
	v, _ := n.children.LoadOrStore(name, c)
	return v.(*spanNode)
}

func newSpan(r *Registry, node *spanNode, tr *Trace, parent SpanID) *Span {
	s := spanPool.Get().(*Span)
	s.reg = r
	s.node = node
	s.tr = tr
	s.parent = parent
	s.errMsg = ""
	s.ended = false
	if tr != nil {
		s.id = NewSpanID()
	} else {
		s.id = SpanID{}
	}
	s.start = time.Now()
	return s
}

// StartSpan begins timing an operation (metric-only: no trace
// attachment).
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return newSpan(r, r.spanNodeFor(name), nil, SpanID{})
}

// StartSpanCtx begins timing an operation, attaching it to the trace
// carried by ctx (if any) as a child of the context's current span. The
// metric path is name alone — trace parentage does not change the
// waldo_span_seconds label, so metric cardinality stays bounded no
// matter which routes an operation runs under.
func (r *Registry) StartSpanCtx(ctx context.Context, name string) *Span {
	if r == nil {
		return nil
	}
	var tr *Trace
	var parent SpanID
	if p := SpanFromContext(ctx); p != nil && p.tr != nil {
		tr, parent = p.tr, p.id
	}
	return newSpan(r, r.spanNodeFor(name), tr, parent)
}

// Child begins a nested span; its metric path is parent/name, and when
// the parent belongs to a trace the child joins it.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.reg, s.node.child(s.reg, name), s.tr, s.id)
}

// SetAttr annotates a traced span (no-op on metric-only spans, so hot
// paths pay nothing when no trace is in flight).
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Fail marks the span (and its trace) as errored. The flight recorder
// never evicts errored traces in favor of healthy ones.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	s.errMsg = msg
	if s.tr != nil {
		s.tr.setErrored()
	}
}

// Context returns the span's propagation context for outgoing requests
// and response headers. Zero when the span is metric-only.
func (s *Span) Context() SpanContext {
	if s == nil || s.tr == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.tr.id, Span: s.id, Sampled: s.tr.sampled}
}

// TraceID returns the trace the span belongs to (zero when metric-only).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return TraceID{}
	}
	return s.tr.id
}

// End stops the span, records its duration (into the histogram, the
// span hook, and the trace when attached), and returns the duration.
// The span must not be used after End.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	end := time.Now()
	d := end.Sub(s.start)
	secs := d.Seconds()
	if s.tr != nil && s.tr.sampled {
		s.node.hist.ObserveWithExemplar(secs, s.tr.id, end)
	} else {
		s.node.hist.Observe(secs)
	}
	tr := s.tr
	if tr != nil {
		rec := SpanData{
			Name:     s.node.path,
			SpanID:   s.id.String(),
			ParentID: "",
			Offset:   s.start.Sub(tr.start),
			Duration: d,
			Attrs:    s.attrs,
			Error:    s.errMsg,
		}
		if !s.parent.IsZero() {
			rec.ParentID = s.parent.String()
		}
		root := s.id == tr.root
		s.attrs = nil // handed to the trace; don't reuse from the pool
		tr.addSpan(rec)
		if root {
			tr.finish(end)
		}
	}
	// Scrub and recycle. Attrs of untraced spans are always nil, so the
	// pooled object carries no stale references.
	s.reg, s.node, s.tr = nil, nil, nil
	s.attrs = nil
	spanPool.Put(s)
	return d
}
