package telemetry

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() || !sc.Sampled {
		t.Fatalf("NewSpanContext = %+v, want valid sampled", sc)
	}
	h := sc.Header()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("header %q not in traceparent layout", h)
	}
	got, ok := ParseTraceHeader(h)
	if !ok || got != sc {
		t.Fatalf("round trip: parsed %+v ok=%v, want %+v", got, ok, sc)
	}

	unsampled := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: false}
	got, ok = ParseTraceHeader(unsampled.Header())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: %+v ok=%v", got, ok)
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	valid := NewSpanContext().Header()
	bad := []string{
		"",
		"garbage",
		valid[:54],       // truncated
		valid + "0",      // too long
		"01" + valid[2:], // unknown version
		strings.Replace(valid, "-", "_", 1),
		valid[:3] + strings.Repeat("z", 32) + valid[35:], // non-hex trace id
		valid[:53] + "7f", // unknown flags
		"00-" + strings.Repeat("0", 32) + valid[35:],              // zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:],         // zero span id
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067aa0ba902b7-01", // one uppercase digit
	}
	for _, v := range bad {
		if sc, ok := ParseTraceHeader(v); ok {
			t.Errorf("ParseTraceHeader(%q) accepted as %+v", v, sc)
		}
	}
}

func TestIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID().String()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestStartTraceJoinsParent(t *testing.T) {
	r := New()
	rec := NewRecorder(RecorderOptions{Metrics: r})
	defer rec.Close()
	r.SetFlightRecorder(rec)

	parent := NewSpanContext()
	sp := r.StartTrace("/v1/readings", parent)
	if got := sp.TraceID(); got != parent.Trace {
		t.Fatalf("joined trace ID = %s, want %s", got, parent.Trace)
	}
	child := sp.Child("screen")
	child.SetAttr("channel", "47")
	child.End()
	sp.End()

	traces := rec.Snapshot(TraceFilter{TraceID: parent.Trace.String()})
	if len(traces) != 1 {
		t.Fatalf("recorder retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Endpoint != "/v1/readings" {
		t.Fatalf("endpoint = %q", tr.Endpoint)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2: %+v", len(tr.Spans), tr.Spans)
	}
	// The child ended first, so it is first; it must parent under the root.
	var root, kid SpanData
	for _, s := range tr.Spans {
		if s.Name == "/v1/readings" {
			root = s
		} else {
			kid = s
		}
	}
	if root.SpanID == "" || kid.ParentID != root.SpanID {
		t.Fatalf("child parent = %q, want root %q", kid.ParentID, root.SpanID)
	}
	if len(kid.Attrs) != 1 || kid.Attrs[0].Key != "channel" || kid.Attrs[0].Value != "47" {
		t.Fatalf("child attrs = %+v", kid.Attrs)
	}
}

func TestStartTraceInvalidParentMintsFresh(t *testing.T) {
	r := New()
	sp := r.StartTrace("/x", SpanContext{})
	defer sp.End()
	if sp.TraceID().IsZero() {
		t.Fatal("fresh trace has zero ID")
	}
	if !sp.Context().Sampled {
		t.Fatal("fresh trace not sampled")
	}
}

func TestStartSpanCtxParentsUnderContextSpan(t *testing.T) {
	r := New()
	rec := NewRecorder(RecorderOptions{Metrics: r})
	defer rec.Close()
	r.SetFlightRecorder(rec)

	root := r.StartTrace("/route", SpanContext{})
	rootID := root.TraceID()
	ctx := ContextWithSpan(context.Background(), root)
	sub := r.StartSpanCtx(ctx, "wal/append")
	if got := sub.TraceID(); got != rootID {
		t.Fatalf("ctx span trace = %s, want %s", got, rootID)
	}
	sub.End()
	root.End()

	traces := rec.Snapshot(TraceFilter{TraceID: rootID.String()})
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("retained %+v", traces)
	}
	// Metric path stays the bare name: no route prefix, bounded cardinality.
	if got := r.Histogram(spanMetric, spanHelp, nil, "span", "wal/append").Count(); got != 1 {
		t.Fatalf("wal/append histogram count = %d, want 1", got)
	}

	// A context without a span yields a metric-only span.
	plain := r.StartSpanCtx(context.Background(), "lonely")
	if !plain.TraceID().IsZero() {
		t.Fatal("span without context trace should be metric-only")
	}
	plain.End()
}

func TestNilSpanSafety(t *testing.T) {
	var r *Registry
	sp := r.StartTrace("/x", SpanContext{})
	sp.SetAttr("k", "v")
	sp.Fail("boom")
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span context = %+v", sc)
	}
	child := sp.Child("c")
	child.End()
	sp.End()
	sp2 := r.StartSpanCtx(context.Background(), "y")
	sp2.End()
}

func TestWrapRouteTracePropagation(t *testing.T) {
	r := New()
	rec := NewRecorder(RecorderOptions{Metrics: r})
	defer rec.Close()
	r.SetFlightRecorder(rec)

	var inner SpanContext
	h := r.WrapRouteFunc("/v1/thing", func(w http.ResponseWriter, req *http.Request) {
		inner = SpanFromContext(req.Context()).Context()
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// With an inbound header: the handler's span joins that trace and the
	// response echoes it.
	parent := NewSpanContext()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TraceHeader, parent.Header())
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if inner.Trace != parent.Trace {
		t.Fatalf("handler trace = %s, want inbound %s", inner.Trace, parent.Trace)
	}
	echo, ok := ParseTraceHeader(resp.Header.Get(TraceHeader))
	if !ok || echo.Trace != parent.Trace {
		t.Fatalf("response header %q does not echo trace %s", resp.Header.Get(TraceHeader), parent.Trace)
	}

	// Without one: a fresh trace is minted and returned.
	resp2, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	minted, ok := ParseTraceHeader(resp2.Header.Get(TraceHeader))
	if !ok || minted.Trace.IsZero() || minted.Trace == parent.Trace {
		t.Fatalf("minted header %q", resp2.Header.Get(TraceHeader))
	}

	// An uppercase header is malformed: a fresh trace, not an echo that
	// differs from what the client sent.
	upper := "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01"
	req3, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req3.Header.Set(TraceHeader, upper)
	resp3, err := srv.Client().Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get(TraceHeader); strings.EqualFold(got[3:35], upper[3:35]) {
		t.Fatalf("uppercase header %q joined as %q", upper, got)
	}

	// Both requests landed in the flight recorder under their trace IDs.
	for _, id := range []TraceID{parent.Trace, minted.Trace} {
		if got := rec.Snapshot(TraceFilter{TraceID: id.String()}); len(got) != 1 {
			t.Fatalf("trace %s retained %d times", id, len(got))
		}
	}
}

func TestWrapRouteErrorStatusMarksTraceErrored(t *testing.T) {
	r := New()
	rec := NewRecorder(RecorderOptions{Metrics: r})
	defer rec.Close()
	r.SetFlightRecorder(rec)

	h := r.WrapRouteFunc("/die", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	errored := rec.Snapshot(TraceFilter{Class: "error"})
	if len(errored) != 1 || !errored[0].Errored {
		t.Fatalf("error ring holds %+v, want the 500 trace", errored)
	}
}

func TestExemplarOnSampledSpan(t *testing.T) {
	r := New()
	rec := NewRecorder(RecorderOptions{Metrics: r})
	defer rec.Close()
	r.SetFlightRecorder(rec)

	sp := r.StartTrace("/v1/model", SpanContext{})
	id := sp.TraceID().String()
	sp.End()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, `# {trace_id="`+id+`"}`) {
		t.Fatalf("exposition carries no exemplar for trace %s:\n%s", id, body)
	}
}

// FuzzParseTraceHeader: whatever parses renders back byte for byte, so
// the header WrapRoute echoes is the one the client sent. The committed
// corpus under testdata/fuzz holds the uppercase value that used to
// parse and come back lowercase.
func FuzzParseTraceHeader(f *testing.F) {
	f.Add(NewSpanContext().Header())
	f.Fuzz(func(t *testing.T, v string) {
		if sc, ok := ParseTraceHeader(v); ok && sc.Header() != v {
			t.Fatalf("ParseTraceHeader(%q) = %+v, which renders as %q", v, sc, sc.Header())
		}
	})
}
