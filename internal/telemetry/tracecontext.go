package telemetry

import (
	"context"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Request-scoped trace context, carried across processes in the
// X-Waldo-Trace header using the W3C traceparent layout:
//
//	00-<32 hex trace id>-<16 hex span id>-<2 hex flags>
//
// The gateway (or the device-side client) mints a context, every fan-out
// leg forwards it, and each process that serves part
// of the request records its spans under the shared trace ID into its own
// flight recorder. Correlating a slow upload across gateway → shard →
// WAL is then one grep for the trace ID returned in the response header.

// TraceHeader is the HTTP header carrying the trace context, both on
// requests (propagation) and on responses (so callers learn the ID to
// look up in /debug/traces).
const TraceHeader = "X-Waldo-Trace"

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated half of a span: enough for a downstream
// process to parent its own spans under the caller's.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context carries a usable trace ID.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() }

// Header renders the context in X-Waldo-Trace wire form.
func (sc SpanContext) Header() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, sc.Trace[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, sc.Span[:])
	if sc.Sampled {
		buf = append(buf, "-01"...)
	} else {
		buf = append(buf, "-00"...)
	}
	return string(buf)
}

// ParseTraceHeader parses an X-Waldo-Trace value. Unknown versions and
// malformed values — uppercase hex included, which the W3C layout
// forbids and Header could not echo — are rejected (ok=false), never
// guessed at: a request with a bad header simply starts a fresh trace.
// Whatever parses renders back as v.
func ParseTraceHeader(v string) (SpanContext, bool) {
	var sc SpanContext
	if len(v) != 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return sc, false
	}
	for i := 3; i < 52; i++ {
		if c := v[i]; i != 35 && (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return sc, false
		}
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(v[3:35])); err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(v[36:52])); err != nil {
		return sc, false
	}
	switch v[53:] {
	case "01":
		sc.Sampled = true
	case "00":
		sc.Sampled = false
	default:
		return sc, false
	}
	if !sc.Valid() || sc.Span.IsZero() {
		return sc, false
	}
	return sc, true
}

// idState seeds the process-local ID generator once from the wall clock;
// every draw afterwards is one atomic add plus a splitmix64 finalizer —
// no locks, no crypto, good-enough uniqueness for correlating requests
// across a handful of processes.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

// splitmix64 is the SplitMix64 output function: a fast, well-mixed
// 64-bit permutation used to stretch the sequential counter into
// ID-shaped bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nextID() uint64 { return splitmix64(idState.Add(0x9e3779b97f4a7c15)) }

// NewTraceID mints a fresh trace ID.
func NewTraceID() TraceID {
	var t TraceID
	a, b := nextID(), nextID()
	for i := 0; i < 8; i++ {
		t[i] = byte(a >> (8 * i))
		t[8+i] = byte(b >> (8 * i))
	}
	return t
}

// NewSpanID mints a fresh span ID.
func NewSpanID() SpanID {
	var s SpanID
	v := nextID()
	for i := 0; i < 8; i++ {
		s[i] = byte(v >> (8 * i))
	}
	return s
}

// NewSpanContext mints a fresh sampled root context — what a client with
// no inherited trace attaches to an outgoing request so the server-side
// trace is correlatable from the device's logs.
func NewSpanContext() SpanContext {
	return SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
}

// spanCtxKey keys the current *Span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp as the current span.
// Child spans started from the context nest under it, and outgoing
// requests built from the context propagate its trace.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the current span, or nil when the context
// carries none. The nil result is safe to use: every *Span method
// no-ops on nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
