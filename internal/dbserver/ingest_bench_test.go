package dbserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
)

// The ingest suite compares the two ways the same 256 readings reach
// the database: 64 per-scan JSON uploads of 4 readings — the
// pre-batching wire — against one 256-reading binary batch frame. Every
// op ingests the identical reading stream, so ns/op is directly
// comparable and readings/s is reported for the headline ratio
// (acceptance: batch ≥ 10× single-JSON, memory and WAL both).

const (
	ingestStream    = 256 // readings ingested per benchmark op
	ingestJSONBatch = 4   // readings per JSON upload (the old per-scan shape)
)

// benchIngest measures one full stream ingest per op: bodies holds the
// pre-encoded requests replayed against the real handler.
func benchIngest(b *testing.B, cfg Config, contentType, path string, bodies [][]byte, headers map[string]string) {
	b.Helper()
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			for k, v := range headers {
				req.Header.Set(k, v)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNoContent {
				b.Fatalf("upload = %d %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ingestStream)*float64(b.N)/b.Elapsed().Seconds(), "readings/s")
	if err := s.FlushWAL(); err != nil {
		b.Fatal(err)
	}
}

// ingestJSONBodies pre-encodes the stream as 64 JSON uploads of 4.
func ingestJSONBodies(b *testing.B) [][]byte {
	b.Helper()
	rs := synthReadings(ingestStream, 47, 7)
	var bodies [][]byte
	for i := 0; i < len(rs); i += ingestJSONBatch {
		up := UploadJSON{CISpanDB: 0.5}
		for _, r := range rs[i : i+ingestJSONBatch] {
			up.Readings = append(up.Readings, FromReading(r))
		}
		body, err := json.Marshal(up)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// ingestFrameBody pre-encodes the stream as one binary batch frame.
func ingestFrameBody(b *testing.B) [][]byte {
	b.Helper()
	frame, err := core.EncodeBatchFrame(synthReadings(ingestStream, 47, 7))
	if err != nil {
		b.Fatal(err)
	}
	return [][]byte{frame}
}

func memoryConfig() Config {
	return Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}}
}

// Run the BenchmarkIngest* variants at a fixed iteration count — `go
// test -run '^$' -bench Ingest -benchtime 500x ./internal/dbserver/`:
// per-op cost grows with store size, so only equal iteration counts
// keep the four on equal stores.
func BenchmarkIngestSingleJSONMemory(b *testing.B) {
	benchIngest(b, memoryConfig(), "application/json", "/v1/readings", ingestJSONBodies(b), nil)
}

func BenchmarkIngestBatchBinaryMemory(b *testing.B) {
	benchIngest(b, memoryConfig(), "application/octet-stream", "/v1/upload/batch",
		ingestFrameBody(b), map[string]string{CISpanHeader: "0.5"})
}

func BenchmarkIngestSingleJSONWAL(b *testing.B) {
	benchIngest(b, durableConfig(b.TempDir()), "application/json", "/v1/readings", ingestJSONBodies(b), nil)
}

func BenchmarkIngestBatchBinaryWAL(b *testing.B) {
	benchIngest(b, durableConfig(b.TempDir()), "application/octet-stream", "/v1/upload/batch",
		ingestFrameBody(b), map[string]string{CISpanHeader: "0.5"})
}

// benchWatchBump measures the retrain path's push-delivery cost with a
// given number of idle watchers parked on the store: one channel swap
// under the hub mutex plus one deferred close, regardless of how many
// WSDs are waiting. The two variants must land within noise of each
// other — that flatness is the "a million idle WSDs cost the retrain
// path nothing" acceptance claim. Waking the K watchers is O(K), but
// that bill is paid by the watchers' own parked request goroutines via
// the handed-off close, never by the retrain caller — so the watchers
// here park once and drain off the measured path.
func benchWatchBump(b *testing.B, watchers int) {
	hub := newWatchHub()
	key := storeKey{ch: 47, kind: 1}
	hub.watch(key) // register the store either way, so both variants pay the real swap
	var wg sync.WaitGroup
	for i := 0; i < watchers; i++ {
		wg.Add(1)
		ch := hub.watch(key)
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.bump(key)
	}
	b.StopTimer()
	wg.Wait()
}

func BenchmarkWatchBumpIdle0(b *testing.B)    { benchWatchBump(b, 0) }
func BenchmarkWatchBumpIdle4096(b *testing.B) { benchWatchBump(b, 4096) }
