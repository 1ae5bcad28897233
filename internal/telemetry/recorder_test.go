package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordTrace pushes one synthetic completed trace through the public
// StartTrace path so classification happens exactly as in production.
func recordTrace(r *Registry, endpoint string, fail bool) TraceID {
	sp := r.StartTrace(endpoint, SpanContext{})
	id := sp.TraceID()
	if fail {
		sp.Fail("synthetic failure")
	}
	sp.End()
	return id
}

func newTestRecorder() (*Registry, *Recorder) {
	r := New()
	return r, r.FlightRecorder()
}

// TestErroredTracesSurviveSamplingPressure is the tail-sampling contract:
// with far more healthy traffic than the rings hold, every errored trace
// is still retained, because errors live in their own ring.
func TestErroredTracesSurviveSamplingPressure(t *testing.T) {
	r, rec := newTestRecorder()

	var errored []TraceID
	for i := 0; i < 20; i++ {
		errored = append(errored, recordTrace(r, "/v1/readings", true))
		// 100× healthy pressure: 2000 OK traces vs 256 recent slots.
		for j := 0; j < 100; j++ {
			recordTrace(r, "/v1/readings", false)
		}
	}

	for _, id := range errored {
		got := rec.Snapshot(TraceFilter{TraceID: id.String()})
		if len(got) != 1 {
			t.Fatalf("errored trace %s evicted by healthy traffic", id)
		}
		if got[0].Class != "error" {
			t.Fatalf("trace %s class = %q, want error", id, got[0].Class)
		}
	}
	// The recent ring is full but bounded.
	if got := len(rec.Snapshot(TraceFilter{Class: "recent"})); got != ringCapacity {
		t.Fatalf("recent ring holds %d, want %d", got, ringCapacity)
	}
	if v := r.Counter("waldo_trace_evicted_total", "", "class", "recent").Value(); v == 0 {
		t.Fatal("no recent evictions counted under pressure")
	}
	if v := r.Counter("waldo_trace_evicted_total", "", "class", "error").Value(); v != 0 {
		t.Fatalf("error ring evicted %d with only 20 errored traces recorded", v)
	}
}

// TestErrorRingWrapsAtCapacity: the no-starvation guarantee is per-ring;
// once the error ring itself wraps, the oldest errors go.
func TestErrorRingWrapsAtCapacity(t *testing.T) {
	r, rec := newTestRecorder()
	for i := 0; i < ringCapacity+12; i++ {
		recordTrace(r, "/v1/readings", true)
	}
	if got := len(rec.Snapshot(TraceFilter{Class: "error"})); got != ringCapacity {
		t.Fatalf("error ring holds %d, want %d", got, ringCapacity)
	}
	if v := r.Counter("waldo_trace_evicted_total", "", "class", "error").Value(); v != 12 {
		t.Fatalf("error evictions = %d, want 12", v)
	}
}

// TestSlowClassification: the endpoint's first threshold is computed
// on the record path once it has minSamples durations, with no timer.
func TestSlowClassification(t *testing.T) {
	r, rec := newTestRecorder()
	for i := 0; i < minSamples; i++ {
		recordTrace(r, "/v1/model", false)
	}

	// A trace slower than everything in the window lands in the slow ring.
	sp := r.StartTrace("/v1/model", SpanContext{})
	id := sp.TraceID()
	time.Sleep(20 * time.Millisecond)
	sp.End()

	got := rec.Snapshot(TraceFilter{TraceID: id.String()})
	if len(got) != 1 || got[0].Class != "slow" {
		t.Fatalf("slow trace retained as %+v", got)
	}
	// min_ms filtering finds it; an absurd floor does not.
	if n := len(rec.Snapshot(TraceFilter{MinDuration: 10 * time.Millisecond})); n != 1 {
		t.Fatalf("min_ms filter matched %d traces, want 1", n)
	}
	if n := len(rec.Snapshot(TraceFilter{MinDuration: time.Hour})); n != 0 {
		t.Fatalf("1h floor matched %d traces", n)
	}
}

// TestRecorderConcurrentRecordReadClose hammers record, Snapshot and
// Handler on a fresh registry, so the recorder's first use, threshold
// refreshes and reads all race; run with -race this is the data-race
// gate.
func TestRecorderConcurrentRecordReadClose(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		r := New()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.FlightRecorder().Handler().ServeHTTP(w, req)
		}))

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					recordTrace(r, fmt.Sprintf("/ep%d", w%2), i%7 == 0)
				}
			}(w)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					r.FlightRecorder().Snapshot(TraceFilter{})
					resp, err := srv.Client().Get(srv.URL + "?limit=5")
					if err == nil {
						resp.Body.Close()
					}
				}
			}()
		}
		wg.Wait()
		srv.Close()
		var recorded uint64
		for _, class := range classNames {
			recorded += r.Counter("waldo_trace_recorded_total", "", "class", class).Value()
		}
		if recorded != 800 {
			t.Fatalf("recorded %d of 800 traces", recorded)
		}
	}
}

func TestRecorderHandler(t *testing.T) {
	r, rec := newTestRecorder()
	okID := recordTrace(r, "/v1/model", false)
	badID := recordTrace(r, "/v1/readings", true)

	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	get := func(q string) (*http.Response, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		return resp, b.String()
	}

	// JSON default, with count and both traces.
	resp, body := get("")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var out struct {
		Count  int         `json:"count"`
		Traces []TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Count != 2 {
		t.Fatalf("count = %d, want 2", out.Count)
	}

	// Filters: class, endpoint, trace ID.
	_, body = get("?class=error")
	if !strings.Contains(body, badID.String()) || strings.Contains(body, okID.String()) {
		t.Fatalf("class=error returned:\n%s", body)
	}
	_, body = get("?endpoint=/v1/model")
	if !strings.Contains(body, okID.String()) || strings.Contains(body, badID.String()) {
		t.Fatalf("endpoint filter returned:\n%s", body)
	}
	_, body = get("?trace=" + okID.String())
	if !strings.Contains(body, okID.String()) {
		t.Fatalf("trace filter returned:\n%s", body)
	}

	// Text rendering carries the span tree.
	resp, body = get("?format=text")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("text content type %q", ct)
	}
	if !strings.Contains(body, "trace "+badID.String()) || !strings.Contains(body, "ERROR") {
		t.Fatalf("text rendering:\n%s", body)
	}

	// Bad parameters are rejected.
	for _, q := range []string{"?min_ms=nope", "?limit=0", "?limit=x"} {
		if resp, _ := get(q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s -> %d, want 400", q, resp.StatusCode)
		}
	}

	// A nil recorder's handler answers 404 instead of panicking.
	var nilRec *Recorder
	rr := httptest.NewRecorder()
	nilRec.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("nil recorder -> %d, want 404", rr.Code)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestSnapshotRendersOnlyWhatItReturns: a filtered read renders the
// traces it returns and no other, and a trace= lookup matches the
// rendered ID exactly — an ID in capitals, cut short or not hex names
// no trace.
func TestSnapshotRendersOnlyWhatItReturns(t *testing.T) {
	r, rec := newTestRecorder()
	want := recordTrace(r, "/v1/model", false)
	recordTrace(r, "/v1/model", false)
	recordTrace(r, "/v1/availability", true)

	got := rec.Snapshot(TraceFilter{TraceID: want.String()})
	if len(got) != 1 || got[0].TraceID != want.String() || len(got[0].Spans) != 1 {
		t.Fatalf("lookup of %s returned %+v", want, got)
	}
	rec.mu.Lock()
	for c := range rec.rings {
		for _, td := range rec.rings[c] {
			if td != nil && td.id != want && (td.TraceID != "" || td.Spans != nil) {
				t.Errorf("trace %s was rendered by a read that did not return it", td.id)
			}
		}
	}
	rec.mu.Unlock()

	for _, id := range []string{strings.ToUpper(want.String()), want.String()[:30], "zz" + want.String()[2:], "x"} {
		if got := rec.Snapshot(TraceFilter{TraceID: id}); len(got) != 0 {
			t.Errorf("trace=%s matched %d traces", id, len(got))
		}
	}
	if got := rec.Snapshot(TraceFilter{Endpoint: "/v1/model"}); len(got) != 2 || got[0].TraceID == "" || got[1].TraceID == "" {
		t.Errorf("endpoint read returned %+v, want 2 rendered traces", got)
	}
}
