package telemetry

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// HTTP middleware metric names. One family each for request counts,
// latency, and concurrency, labeled by route (and status code for the
// counter), matching the flat-family convention Prometheus expects.
const (
	metricHTTPRequests = "waldo_http_requests_total"
	metricHTTPLatency  = "waldo_http_request_seconds"
	metricHTTPInFlight = "waldo_http_in_flight_requests"
)

// StatusRecorder wraps a ResponseWriter and captures the response code
// the handler writes: the first WriteHeader wins, as it does on the wire.
type StatusRecorder struct {
	http.ResponseWriter
	code int
}

// Status returns the captured code; a handler that wrote a body (or
// nothing) without calling WriteHeader answered 200.
func (sr *StatusRecorder) Status() int {
	if sr.code == 0 {
		return http.StatusOK
	}
	return sr.code
}

// WriteHeader implements http.ResponseWriter.
func (sr *StatusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter; a body write before any
// WriteHeader commits the 200.
func (sr *StatusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Flush passes through so streaming handlers keep working instrumented.
func (sr *StatusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// WrapRoute instruments a handler under a fixed route label: request
// count by status code, latency histogram, and a process-wide in-flight
// gauge. The route label is explicit (not taken from the URL) so
// high-cardinality paths can't blow up the metric space. On a nil
// registry the handler is returned unwrapped.
//
// Every wrapped request also runs under a trace: an incoming
// X-Waldo-Trace header joins the caller's trace (the gateway fan-out
// path), a missing or malformed one mints a fresh
// trace, and the response always carries the root span's context in
// X-Waldo-Trace so callers can pull the trace from /debug/traces.
// Handlers reach the root span via telemetry.SpanFromContext on the
// request context; 5xx responses mark the trace errored, which pins it
// in the flight recorder's error ring.
func (r *Registry) WrapRoute(route string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	latency := r.Histogram(metricHTTPLatency,
		"HTTP request latency by route.", nil, "route", route)
	inFlight := r.Gauge(metricHTTPInFlight,
		"Requests currently being served.")
	codes := &routeCodes{reg: r, route: route, byCode: make(map[int]routeCode)}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		inFlight.Inc()
		parent, _ := ParseTraceHeader(req.Header.Get(TraceHeader))
		sp := r.StartTrace(route, parent)
		sc := sp.Context()
		w.Header().Set(TraceHeader, sc.Header())
		req = req.WithContext(ContextWithSpan(req.Context(), sp))
		start := time.Now()
		sr := &StatusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, req)
		latency.Observe(time.Since(start).Seconds())
		code := codes.get(sr.Status())
		sp.SetAttr("code", code.text)
		if code.code >= http.StatusInternalServerError {
			sp.Fail("HTTP " + code.text)
		}
		sp.End()
		inFlight.Dec()
		code.requests.Inc()
	})
}

// WrapRouteFunc is WrapRoute for plain handler functions.
func (r *Registry) WrapRouteFunc(route string, next http.HandlerFunc) http.Handler {
	return r.WrapRoute(route, next)
}

// routeCodes is one route's request counter and code label per status
// code, each resolved from the registry once, at the code's first
// request.
type routeCodes struct {
	reg    *Registry
	route  string
	mu     sync.Mutex
	byCode map[int]routeCode
}

// routeCode is one status code's label text and counter.
type routeCode struct {
	code     int
	text     string
	requests *Counter
}

func (rc *routeCodes) get(code int) routeCode {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	c, ok := rc.byCode[code]
	if !ok {
		c = routeCode{code: code, text: strconv.Itoa(code)}
		c.requests = rc.reg.Counter(metricHTTPRequests, "HTTP requests by route and status code.",
			"route", rc.route, "code", c.text)
		rc.byCode[code] = c
	}
	return c
}
