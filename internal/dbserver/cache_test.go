package dbserver

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/core"
)

// metricValue scrapes one sample line out of /metrics exposition text.
func metricValue(t *testing.T, ts *httptest.Server, line string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(l, line+" ") {
			return strings.TrimPrefix(l, line+" ")
		}
	}
	return ""
}

// TestModelCacheAndConditionalGet walks the fleet-poll lifecycle: first
// download encodes (miss), repeats serve the cached blob (hit), a
// revalidation with the returned ETag answers 304 with no body
// (not_modified), and a retrain invalidates — the old ETag mismatches and
// the next download re-encodes the new version.
func TestModelCacheAndConditionalGet(t *testing.T) {
	_, ts := bootedServer(t)
	url := ts.URL + "/v1/model?channel=47&sensor=1"

	get := func(etag string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// First download: encode + cache fill.
	resp := get("")
	body1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body1) == 0 {
		t.Fatalf("first download = %s, %d bytes", resp.Status, len(body1))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a strong quoted validator", etag)
	}

	// Second download: cache hit, identical bytes.
	resp = get("")
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body2) != string(body1) {
		t.Fatal("cached blob differs from first encode")
	}

	// Conditional revalidation: 304, empty body, same validator.
	resp = get(etag)
	notMod, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation = %s, want 304", resp.Status)
	}
	if len(notMod) != 0 {
		t.Fatalf("304 carried %d body bytes", len(notMod))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	// Weak-comparison and list forms must also match.
	for _, header := range []string{"W/" + etag, `"zzz", ` + etag, "*"} {
		resp = get(header)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q = %s, want 304", header, resp.Status)
		}
	}

	const sample = `waldo_dbserver_model_cache_total{outcome=%q}`
	if got := metricValue(t, ts, fmt.Sprintf(sample, "miss")); got != "1" {
		t.Errorf("cache miss count = %s, want 1", got)
	}
	if got := metricValue(t, ts, fmt.Sprintf(sample, "hit")); got != "1" {
		t.Errorf("cache hit count = %s, want 1", got)
	}
	if got := metricValue(t, ts, fmt.Sprintf(sample, "not_modified")); got != "4" {
		t.Errorf("cache not_modified count = %s, want 4", got)
	}

	// Retrain bumps the version: the stale validator no longer matches and
	// the download is a fresh encode with a new ETag.
	post, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	resp = get(etag)
	body3, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body3) == 0 {
		t.Fatalf("post-retrain conditional download = %s, %d bytes", resp.Status, len(body3))
	}
	if got := resp.Header.Get("ETag"); got == etag {
		t.Errorf("ETag unchanged across retrain: %q", got)
	}
	if got := metricValue(t, ts, fmt.Sprintf(sample, "miss")); got != "2" {
		t.Errorf("cache miss count after retrain = %s, want 2", got)
	}
}

// TestModelETagNamesTheBytes: the validator is the representation's, not
// the version counter's. Two servers that bootstrapped the same readings
// (a primary and its replica) share it, so a client failing over still
// revalidates to 304; a server whose v1 of the same channel was trained
// on other readings (another shard) has its own, so the client's v1
// from elsewhere is not "not modified" there.
func TestModelETagNamesTheBytes(t *testing.T) {
	fetch := func(h http.Handler, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/model?channel=47&sensor=1", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	boot := func(seed int64) http.Handler {
		s := newServer(t, Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
		if err := s.Bootstrap(synthReadings(600, 47, seed)); err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	primary, replica, other := boot(1), boot(1), boot(2)
	got := fetch(primary, "")
	etag := got.Header().Get("ETag")
	if got.Code != http.StatusOK || !strings.HasPrefix(etag, `"47-1-v1-`) {
		t.Fatalf("first fetch = %d, ETag %q", got.Code, etag)
	}
	if rec := fetch(replica, etag); rec.Code != http.StatusNotModified {
		t.Errorf("byte-identical replica revalidated %s to %d, want 304", etag, rec.Code)
	}
	rec := fetch(other, etag)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Waldo-Model-Version") != "1" {
		t.Fatalf("other server's v1 revalidated %s to %d (version %s), want its own 200 v1",
			etag, rec.Code, rec.Header().Get("X-Waldo-Model-Version"))
	}
	if rec.Header().Get("ETag") == etag || rec.Body.String() == got.Body.String() {
		t.Errorf("two different v1 descriptors share ETag %s", etag)
	}
}

func TestETagMatches(t *testing.T) {
	const etag = `"47-1-v3"`
	for header, want := range map[string]bool{
		etag:                 true,
		"W/" + etag:          true,
		`"other", ` + etag:   true,
		`"other", W/` + etag: true,
		"*":                  true,
		`"47-1-v2"`:          false,
		"":                   false,
		"47-1-v3":            false, // unquoted is not the same validator
	} {
		if got := etagMatches(header, etag); got != want {
			t.Errorf("etagMatches(%q) = %v, want %v", header, got, want)
		}
	}
}

// BenchmarkModelEndpointCached measures the steady-state fleet-poll cost:
// repeat downloads of an unchanged model (cache hits) and conditional
// revalidations (304, no body).
func BenchmarkModelEndpointCached(b *testing.B) {
	s := New(Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const target = "/v1/model?channel=47&sensor=1"

	// Prime the blob cache.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("prime = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")

	b.Run("full-body", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status = %d", rec.Code)
			}
		}
	})
	b.Run("if-none-match", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set("If-None-Match", etag)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNotModified {
				b.Fatalf("status = %d", rec.Code)
			}
		}
	})
}

// TestFullModelAnswerHasContentLength: a full model answer — a fetch and
// a watch's wake — states its length, so the serving loop sends it in
// one piece instead of chunked, whatever the descriptor's size: here an
// SVM model's, past the loop's 2 KB hold-back.
func TestFullModelAnswerHasContentLength(t *testing.T) {
	s := newServer(t, Config{})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := adminhttp.Start("127.0.0.1:0", s.Handler(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, target := range []string{"/v1/model?channel=47&sensor=1", "/v1/model/watch?channel=47&sensor=1&version=0"} {
		resp, err := http.Get(srv.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %s, %v", target, resp.Status, err)
		}
		if len(body) <= 2<<10 {
			t.Fatalf("%s: a %d-byte descriptor would get a Content-Length anyway", target, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte descriptor",
				target, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
