package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
)

// postBatch uploads rs as one binary batch frame and returns the response.
func postBatch(t *testing.T, ts *httptest.Server, frame []byte, ciSpan float64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload/batch", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if ciSpan != 0 {
		req.Header.Set(CISpanHeader, strconv.FormatFloat(ciSpan, 'g', -1, 64))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestBatchUpload(t *testing.T) {
	s, ts := bootedServer(t)
	before := s.StoreSize(47, 1)
	rs := synthReadings(128, 47, 7)
	frame, err := core.EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, ts, frame, 0.5)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch upload = %s", resp.Status)
	}
	if got := s.StoreSize(47, 1); got != before+128 {
		t.Errorf("store grew %d → %d, want +128", before, got)
	}
	reg := s.Metrics()
	if got := reg.Counter("waldo_dbserver_batch_uploads_total", "").Value(); got != 1 {
		t.Errorf("batch_uploads_total = %d, want 1", got)
	}
	if got := reg.Counter("waldo_dbserver_batch_readings_total", "").Value(); got != 128 {
		t.Errorf("batch_readings_total = %d, want 128", got)
	}
}

// TestBatchUploadMatchesJSON uploads the same readings through both paths
// on two identically-bootstrapped servers and requires identical store
// and model state — the binary path is an encoding, not a semantic fork.
func TestBatchUploadMatchesJSON(t *testing.T) {
	sBin, tsBin := bootedServer(t)
	sJSON, tsJSON := bootedServer(t)
	rs := synthReadings(200, 47, 11)

	frame, err := core.EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postBatch(t, tsBin, frame, 0.5); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch upload = %s", resp.Status)
	}

	up := UploadJSON{CISpanDB: 0.5}
	for _, r := range rs {
		up.Readings = append(up.Readings, FromReading(r))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(up); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tsJSON.URL+"/v1/readings", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("json upload = %s", resp.Status)
	}

	for _, ts := range []*httptest.Server{tsBin, tsJSON} {
		r2, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
	}
	if a, b := sBin.StoreSize(47, 1), sJSON.StoreSize(47, 1); a != b {
		t.Fatalf("store sizes diverge: batch %d vs json %d", a, b)
	}
	if a, b := sBin.ModelVersion(47, 1), sJSON.ModelVersion(47, 1); a != b {
		t.Fatalf("model versions diverge: batch %d vs json %d", a, b)
	}
	csvA := exportCSV(t, tsBin, 47, 1)
	csvB := exportCSV(t, tsJSON, 47, 1)
	if csvA != csvB {
		t.Error("exported stores differ between batch and JSON ingestion")
	}
}

func TestBatchUploadRejects(t *testing.T) {
	s, ts := bootedServer(t)
	rs := synthReadings(8, 47, 3)
	frame, err := core.EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if resp := postBatch(t, ts, corrupt, 0); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt CRC = %s, want 400", resp.Status)
	}

	trailing := append(append([]byte(nil), frame...), 0x00)
	if resp := postBatch(t, ts, trailing, 0); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing bytes = %s, want 400", resp.Status)
	}

	if resp := postBatch(t, ts, nil, 0); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body = %s, want 400", resp.Status)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload/batch", bytes.NewReader(frame))
	req.Header.Set(CISpanHeader, "not-a-float")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad CI span header = %s, want 400", resp.Status)
	}

	// α′ gate still applies: a huge CI span is a 422, same as JSON.
	if resp := postBatch(t, ts, frame, 50); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("wide CI span = %s, want 422", resp.Status)
	}

	if got := s.Metrics().Counter("waldo_dbserver_batch_rejected_total", "").Value(); got != 5 {
		t.Errorf("batch_rejected_total = %d, want 5", got)
	}
	if got := s.Metrics().Counter("waldo_dbserver_batch_uploads_total", "").Value(); got != 0 {
		t.Errorf("batch_uploads_total = %d, want 0 after rejects", got)
	}
}

func TestBatchUploadBodyCap(t *testing.T) {
	s := New(Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}, MaxBodyBytes: 256})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	frame, err := core.EncodeBatchFrame(synthReadings(16, 47, 3)) // >1KB
	if err != nil {
		t.Fatal(err)
	}
	if resp := postBatch(t, ts, frame, 0); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch = %s, want 413", resp.Status)
	}
}

func watchURL(ts *httptest.Server, version int) string {
	return fmt.Sprintf("%s/v1/model/watch?channel=47&sensor=1&version=%d", ts.URL, version)
}

func TestWatchImmediateDelivery(t *testing.T) {
	s, ts := bootedServer(t)
	resp, err := http.Get(watchURL(ts, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch from version 0 = %s, want immediate 200", resp.Status)
	}
	if v := resp.Header.Get("X-Waldo-Model-Version"); v != "1" {
		t.Errorf("delivered version = %q, want 1", v)
	}
	if _, err := core.DecodeModel(resp.Body); err != nil {
		t.Fatalf("delivered model does not decode: %v", err)
	}
	if got := s.Metrics().Counter("waldo_dbserver_watch_total", "", "outcome", "delivered").Value(); got != 1 {
		t.Errorf("watch delivered = %d, want 1", got)
	}
}

// TestWatchDeliversOnRetrain parks a watcher at the current version and
// proves a retrain pushes the new model to it without any client polling.
func TestWatchDeliversOnRetrain(t *testing.T) {
	s, ts := bootedServer(t)
	got := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(watchURL(ts, 1))
		if err != nil {
			errc <- err
			return
		}
		got <- resp
	}()

	// Wait until the watcher is parked, then trigger the retrain.
	waitForGauge(t, s, "waldo_dbserver_watch_active", 1)
	frame, err := core.EncodeBatchFrame(synthReadings(64, 47, 5))
	if err != nil {
		t.Fatal(err)
	}
	if resp := postBatch(t, ts, frame, 0.5); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	rt, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Body.Close()

	select {
	case resp := <-got:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pushed watch = %s", resp.Status)
		}
		if v := resp.Header.Get("X-Waldo-Model-Version"); v != "2" {
			t.Errorf("pushed version = %q, want 2", v)
		}
		if _, err := core.DecodeModel(resp.Body); err != nil {
			t.Fatalf("pushed model does not decode: %v", err)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("watch never fired after retrain")
	}
}

func TestWatchTimeout(t *testing.T) {
	s := New(Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: 30 * time.Millisecond,
	})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(watchURL(ts, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("expired watch = %s, want 304", resp.Status)
	}
	if v := resp.Header.Get("X-Waldo-Model-Version"); v != "1" {
		t.Errorf("304 version header = %q, want 1", v)
	}
	if got := s.Metrics().Counter("waldo_dbserver_watch_total", "", "outcome", "timeout").Value(); got != 1 {
		t.Errorf("watch timeout count = %d, want 1", got)
	}
}

// TestWatchParksOnTheValidator: a watch carrying If-None-Match parks
// while that names the store's descriptor, whatever version= says, and
// is answered at once when it names another — one from another server,
// at a version this one never reached.
func TestWatchParksOnTheValidator(t *testing.T) {
	s := New(Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: 30 * time.Millisecond,
	})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/model?channel=47&sensor=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	held := resp.Header.Get("ETag")
	for _, tt := range []struct {
		inm     string
		version int
		want    int
	}{
		{held, 0, http.StatusNotModified},
		{`"47-1-v3-0123456789abcdef"`, 3, http.StatusOK},
	} {
		req, err := http.NewRequest(http.MethodGet, watchURL(ts, tt.version), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", tt.inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Errorf("watch holding %s at version=%d = %s, want %d", tt.inm, tt.version, resp.Status, tt.want)
		}
	}
}

func TestWatchErrors(t *testing.T) {
	_, ts := bootedServer(t)
	cases := map[string]int{
		"/v1/model/watch?channel=47&sensor=1&version=x":  http.StatusBadRequest,
		"/v1/model/watch?channel=47&sensor=1&version=-1": http.StatusBadRequest,
		"/v1/model/watch?channel=xx&sensor=1":            http.StatusBadRequest,
		"/v1/model/watch?channel=30&sensor=1":            http.StatusNotFound,
	}
	for path, want := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestWatchCancelReleasesWatcher is the goleak-style leak check: client
// disconnects must unpark the handler goroutine and drop the active
// gauge back to zero, with the process goroutine count returning to its
// pre-watch baseline.
func TestWatchCancelReleasesWatcher(t *testing.T) {
	s, ts := bootedServer(t)
	baseline := runtime.NumGoroutine()

	const n = 8
	cancels := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodGet, watchURL(ts, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		go http.DefaultClient.Do(req.WithContext(ctx)) //nolint:errcheck // error is the cancellation
	}
	waitForGauge(t, s, "waldo_dbserver_watch_active", n)

	for _, cancel := range cancels {
		cancel()
	}
	waitForGauge(t, s, "waldo_dbserver_watch_active", 0)
	if got := s.Metrics().Counter("waldo_dbserver_watch_total", "", "outcome", "disconnect").Value(); got != n {
		t.Errorf("watch disconnect count = %d, want %d", got, n)
	}

	// Parked watchers must not survive their clients.
	waitForGoroutines(t, baseline)
}

// TestCloseWakesParkedWatchers covers the shutdown arm of the watch
// long-poll: with N watchers parked on the default 55 s horizon,
// Server.Close returns at once, every watcher is answered 503 (resilient
// clients back off and re-arm), the shutdown outcome counts each of
// them, and no handler goroutine is left parked.
func TestCloseWakesParkedWatchers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, ts := bootedServer(t)

	const n = 8
	statuses := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := ts.Client().Get(watchURL(ts, 1))
			if err != nil {
				statuses <- "err:" + err.Error()
				return
			}
			resp.Body.Close()
			statuses <- resp.Status
		}()
	}
	waitForGauge(t, s, "waldo_dbserver_watch_active", n)

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close took %v with %d watchers parked; it must not wait out the watch horizon", d, n)
	}
	for i := 0; i < n; i++ {
		select {
		case got := <-statuses:
			if got != "503 Service Unavailable" {
				t.Errorf("watcher answered %q at shutdown, want 503", got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("watcher %d still parked after Close", i)
		}
	}
	waitForGauge(t, s, "waldo_dbserver_watch_active", 0)
	if got := s.Metrics().Counter("waldo_dbserver_watch_total", "", "outcome", "shutdown").Value(); got != n {
		t.Errorf("watch shutdown count = %d, want %d", got, n)
	}

	// The listener drains without waiting on anyone, and nothing the
	// server or its watchers started outlives it.
	ts.Close()
	waitForGoroutines(t, baseline)
}

// TestWatchManyWatchersOneBump parks several watchers on one store and
// proves a single retrain wakes them all with the same pushed version.
func TestWatchManyWatchersOneBump(t *testing.T) {
	s, ts := bootedServer(t)
	const n = 16
	versions := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(watchURL(ts, 1))
			if err != nil {
				versions <- "err:" + err.Error()
				return
			}
			defer resp.Body.Close()
			versions <- resp.Header.Get("X-Waldo-Model-Version")
		}()
	}
	waitForGauge(t, s, "waldo_dbserver_watch_active", n)
	frame, err := core.EncodeBatchFrame(synthReadings(32, 47, 9))
	if err != nil {
		t.Fatal(err)
	}
	if resp := postBatch(t, ts, frame, 0.5); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	rt, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Body.Close()
	for i := 0; i < n; i++ {
		select {
		case v := <-versions:
			if v != "2" {
				t.Errorf("watcher %d got version %q, want 2", i, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("watcher %d never woke", i)
		}
	}
}

// waitForGoroutines polls until the process goroutine count settles
// back to (about) baseline, allowing slack for the HTTP machinery's
// transient per-connection goroutines winding down.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitForGauge polls a registry gauge until it reaches want.
func waitForGauge(t *testing.T, s *Server, name string, want float64) {
	t.Helper()
	g := s.Metrics().Gauge(name, "")
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want %v", name, g.Value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
