package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "ops", "kind", "a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels yields the same instance.
	if r.Counter("ops_total", "ops", "kind", "a") != c {
		t.Fatal("lookup did not return the existing counter")
	}
	// Different label value is a distinct instance.
	if r.Counter("ops_total", "ops", "kind", "b") == c {
		t.Fatal("distinct labels shared an instance")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(2.5)
	g.Dec()
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	g := r.Gauge("y", "")
	g.Set(1)
	h := r.Histogram("z", "", nil)
	h.Observe(1)
	sp := r.StartSpanCtx(context.Background(), "op")
	sp.Child("inner").End()
	sp.End()
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "latency", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if got := s.Mean(); got != 50.5 {
		t.Fatalf("mean = %v", got)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 50, 5},
		{0.95, 95, 5},
		{0.99, 99, 5},
		{0, 1, 0},
		{1, 100, 0},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("q%.2f = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestHistogramQuantileEmptyAndSingle(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	r := New()
	h := r.Histogram("one", "", []float64{10, 20, 30})
	h.Observe(7)
	s := h.Snapshot()
	if got := s.Quantile(0.99); got < 0 || got > 10 {
		t.Fatalf("single-sample q99 = %v, want within its bucket", got)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total", "")
			h := r.Histogram("obs", "", nil)
			g := r.Gauge("level", "")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i))
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*perWorker)
	}
	if got := r.Histogram("obs", "", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level", "").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
}

func TestSpans(t *testing.T) {
	r := New()
	sp := r.StartSpanCtx(context.Background(), "retrain")
	child := sp.Child("build")
	child.End()
	if d := sp.End(); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	r.StartSpanCtx(context.Background(), "classify").End()

	for _, path := range []string{"retrain/build", "retrain", "classify"} {
		if got := r.Histogram(spanMetric, spanHelp, nil, "span", path).Count(); got != 1 {
			t.Errorf("span %q histogram count = %d, want 1", path, got)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("waldo_uploads_total", "Uploads.", "outcome", "accepted").Add(3)
	r.Gauge("waldo_store_readings", "Store size.").Set(42)
	h := r.Histogram("waldo_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	// One traced request through WrapRoute, so the route and span
	// histograms hold a sampled trace's observations.
	r.WrapRouteFunc("/v1/model", func(http.ResponseWriter, *http.Request) {}).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/model", nil))

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE waldo_uploads_total counter",
		`waldo_uploads_total{outcome="accepted"} 3`,
		"# TYPE waldo_store_readings gauge",
		"waldo_store_readings 42",
		"# TYPE waldo_lat_seconds histogram",
		`waldo_lat_seconds_bucket{le="0.1"} 1`,
		`waldo_lat_seconds_bucket{le="1"} 2`,
		`waldo_lat_seconds_bucket{le="+Inf"} 3`,
		"waldo_lat_seconds_count 3",
		`waldo_http_request_seconds_count{route="/v1/model"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}

	// Text format 0.0.4: a sample line is name{labels} value with an
	// optional integer timestamp, and nothing after it.
	label := `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"`
	sampleRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{` + label + `(?:,` + label + `)*\})? ` +
		`(?:[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[-+]Inf|NaN)(?: -?[0-9]+)?$`)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !sampleRE.MatchString(line) {
			t.Errorf("not a text-format 0.0.4 sample line: %q", line)
		}
	}
}

func TestWrapRoute(t *testing.T) {
	r := New()
	mux := http.NewServeMux()
	mux.Handle("GET /ok", r.WrapRouteFunc("/ok", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("GET /boom", r.WrapRouteFunc("/boom", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := srv.Client().Get(srv.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := srv.Client().Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := r.Counter(metricHTTPRequests, "", "route", "/ok", "code", "200").Value(); got != 3 {
		t.Fatalf("/ok count = %d, want 3", got)
	}
	if got := r.Counter(metricHTTPRequests, "", "route", "/boom", "code", "418").Value(); got != 1 {
		t.Fatalf("/boom count = %d, want 1", got)
	}
	if got := r.Histogram(metricHTTPLatency, "", nil, "route", "/ok").Count(); got != 3 {
		t.Fatalf("/ok latency count = %d, want 3", got)
	}
	if got := r.Gauge(metricHTTPInFlight, "").Value(); got != 0 {
		t.Fatalf("in-flight gauge = %v, want 0 after all requests done", got)
	}

	// Nil registry: handler passes through unwrapped.
	var nilReg *Registry
	h := nilReg.WrapRoute("/x", http.NotFoundHandler())
	if h == nil {
		t.Fatal("nil registry wrapped to nil handler")
	}
}
