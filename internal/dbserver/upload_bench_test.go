package dbserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
)

// benchUploadBody renders one 4-reading upload as the wire JSON.
func benchUploadBody(b *testing.B) []byte {
	b.Helper()
	up := UploadJSON{CISpanDB: 0.5}
	for _, r := range synthReadings(4, 47, 7) {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchUpload drives POST /v1/readings through the real handler b.N
// times. The acceptance criterion for the WAL is that the durable
// variant stays within ~10% of the in-memory one: the journal append is
// an enqueue, the fsync happens off the request path.
func benchUpload(b *testing.B, cfg Config) {
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := benchUploadBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/readings", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			b.Fatalf("upload = %d %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if err := s.FlushWAL(); err != nil {
		b.Fatal(err)
	}
}

// benchUploadParallel is the same path under concurrent uploaders — the
// shape group commit is built for: every in-flight fsync absorbs the
// appends that arrived while it ran, so added latency amortizes toward
// zero as load grows.
func benchUploadParallel(b *testing.B, cfg Config) {
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := benchUploadBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/readings", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNoContent {
				b.Fatalf("upload = %d %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	if err := s.FlushWAL(); err != nil {
		b.Fatal(err)
	}
}

// The BenchmarkUploadPath* variants compare memory against WAL, so run
// them at a fixed iteration count — `go test -run '^$' -bench UploadPath
// -benchtime 30000x ./internal/dbserver/`. Per-op cost grows with store
// size; a time-based -benchtime would hand the two variants different
// workloads.
func BenchmarkUploadPathMemory(b *testing.B) {
	benchUpload(b, Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
}

func BenchmarkUploadPathWAL(b *testing.B) {
	benchUpload(b, Config{
		Constructor: core.ConstructorConfig{Classifier: core.KindNB},
		DataDir:     b.TempDir(),
	})
}

func BenchmarkUploadPathMemoryParallel(b *testing.B) {
	benchUploadParallel(b, Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
}

func BenchmarkUploadPathWALParallel(b *testing.B) {
	benchUploadParallel(b, Config{
		Constructor: core.ConstructorConfig{Classifier: core.KindNB},
		DataDir:     b.TempDir(),
	})
}
