package dbserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/sensor"
)

// uploadJSONReadings ships readings through the single JSON upload path.
func uploadJSONReadings(t *testing.T, ts *httptest.Server, rs []dataset.Reading, ciSpan float64) {
	t.Helper()
	up := UploadJSON{CISpanDB: ciSpan}
	for _, r := range rs {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("JSON upload = %s", resp.Status)
	}
}

// uploadBinaryReadings ships readings as one binary batch frame.
func uploadBinaryReadings(t *testing.T, ts *httptest.Server, rs []dataset.Reading, ciSpan float64) {
	t.Helper()
	frame, err := core.EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload/batch", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(CISpanHeader, fmt.Sprint(ciSpan))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("binary upload = %s", resp.Status)
	}
}

// fetchModelBytes downloads the encoded model for ch47/rtl-sdr.
func fetchModelBytes(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	body := getOK(t, ts, "/v1/model?channel=47&sensor=1")
	return body
}

func getOK(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s (%s)", path, resp.Status, buf.String())
	}
	return buf.Bytes()
}

// TestBatchVsSingleEndToEnd is the tentpole's equivalence proof on
// durable servers: the same readings ingested as binary batch frames on
// one server and as per-scan JSON uploads on another must produce
// byte-identical trusted stores, identical served models, and identical
// state again after both processes crash (no Close) and recover from
// WAL. The binary path is a faster encoding of the same ingest, not a
// second ingest semantics.
func TestBatchVsSingleEndToEnd(t *testing.T) {
	dirBatch, dirSingle := t.TempDir(), t.TempDir()
	mk := func(dir string) (*Server, *httptest.Server) {
		s, err := Open(durableConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		// The crashed process is stopped only once recovery was checked:
		// its WAL holds nothing unflushed, so closing it writes nothing.
		t.Cleanup(func() { s.Close() })
		if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	sb, tsb := mk(dirBatch)
	ss, tss := mk(dirSingle)

	fresh := synthReadings(120, 47, 9)
	// Binary side: three frames of 40. JSON side: the same readings in
	// twelve 10-reading uploads — different framing, same stream.
	for i := 0; i < 120; i += 40 {
		uploadBinaryReadings(t, tsb, fresh[i:i+40], 0.5)
	}
	for i := 0; i < 120; i += 10 {
		uploadJSONReadings(t, tss, fresh[i:i+10], 0.5)
	}
	for _, ts := range []*httptest.Server{tsb, tss} {
		resp, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retrain = %s", resp.Status)
		}
	}

	if b, s := exportCSV(t, tsb, 47, 1), exportCSV(t, tss, 47, 1); b != s {
		t.Fatal("batch-ingested store differs from single-ingested store")
	}
	if b, s := fetchModelBytes(t, tsb), fetchModelBytes(t, tss); !bytes.Equal(b, s) {
		t.Fatal("batch-ingested model differs from single-ingested model")
	}
	if b, s := sb.ModelVersion(47, sensor.KindRTLSDR), ss.ModelVersion(47, sensor.KindRTLSDR); b != s {
		t.Fatalf("model versions diverge: batch %d, single %d", b, s)
	}

	// Crash both (flush so bytes are on disk, then abandon without Close)
	// and recover: equality must survive WAL replay.
	for _, s := range []*Server{sb, ss} {
		if err := s.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	tsb.Close()
	tss.Close()
	sb2, err := Open(durableConfig(dirBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer sb2.Close()
	ss2, err := Open(durableConfig(dirSingle))
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	tsb2, tss2 := httptest.NewServer(sb2.Handler()), httptest.NewServer(ss2.Handler())
	defer tsb2.Close()
	defer tss2.Close()
	if b, s := exportCSV(t, tsb2, 47, 1), exportCSV(t, tss2, 47, 1); b != s {
		t.Fatal("recovered stores differ between batch and single ingest")
	}
	if b, s := sb2.ModelVersion(47, sensor.KindRTLSDR), ss2.ModelVersion(47, sensor.KindRTLSDR); b != s {
		t.Fatalf("recovered model versions diverge: batch %d, single %d", b, s)
	}
}

// TestBatchCrashMidAppendIsAtomic kills the server "mid-batch": the WAL
// record group-committing the last frame is torn on disk, as if power
// died during the write. Recovery must surface every fully committed
// batch and none of the torn one — a reading count strictly between two
// batch boundaries would mean a half-applied frame, which the whole
// retry/requeue design (client re-sends unacked frames verbatim)
// depends on never happening.
func TestBatchCrashMidAppendIsAtomic(t *testing.T) {
	dataDir := t.TempDir()
	s, err := Open(durableConfig(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) // after recovery was checked; its WAL is flushed
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	uploadBinaryReadings(t, ts, synthReadings(40, 47, 5), 0.5)
	if err := s.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	wantCSV := exportCSV(t, ts, 47, 1) // state with batch 1 committed

	uploadBinaryReadings(t, ts, synthReadings(30, 47, 6), 0.5)
	if err := s.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	// Crash: no Close. Tear the tail of the newest WAL segment so batch
	// 2's group-commit record is half on disk.
	seg := newestWALSegment(t, dataDir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(dataDir))
	if err != nil {
		t.Fatalf("reopen after torn batch: %v", err)
	}
	defer s2.Close()
	if got := s2.StoreSize(47, sensor.KindRTLSDR); got != 600+40 {
		t.Fatalf("recovered store size = %d, want 640 (batch 1 whole, torn batch 2 absent)", got)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := exportCSV(t, ts2, 47, 1); got != wantCSV {
		t.Error("recovered store is not byte-identical to the pre-torn-batch state")
	}
}

// newestWALSegment finds the lexically last wal.*.log under root.
func newestWALSegment(t *testing.T, root string) string {
	t.Helper()
	var newest string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if !d.IsDir() && strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log") && p > newest {
			newest = p
		}
		return nil
	})
	if err != nil || newest == "" {
		t.Fatalf("find WAL segment under %s: %v", root, err)
	}
	return newest
}
