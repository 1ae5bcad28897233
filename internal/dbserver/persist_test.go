package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// corruptFile flips a byte in the middle of the named file somewhere
// under root.
func corruptFile(t *testing.T, root, name string) {
	t.Helper()
	var path string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err == nil && d.Name() == name {
			path = p
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("find %s under %s: %v", name, root, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func durableConfig(dataDir string) Config {
	return Config{
		Constructor: core.ConstructorConfig{Classifier: core.KindNB},
		DataDir:     dataDir,
	}
}

// exportCSV fetches one store's trusted readings as CSV text.
func exportCSV(t *testing.T, ts *httptest.Server, ch, kind int) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/export?channel=%d&sensor=%d", ts.URL, ch, kind))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestOpenRecoversStore is the package-level crash-recovery check: a
// server populated through Bootstrap + uploads, abandoned without a
// clean close, must reopen from disk with a byte-identical store and the
// same served model version.
func TestOpenRecoversStore(t *testing.T) {
	dataDir := t.TempDir()
	s, err := Open(durableConfig(dataDir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	up := UploadJSON{CISpanDB: 0.5}
	for _, r := range synthReadings(20, 47, 2) {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, _ := json.Marshal(up)
	resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	wantCSV := exportCSV(t, ts, 47, 1)
	wantVersion := s.ModelVersion(47, sensor.KindRTLSDR)
	wantSize := s.StoreSize(47, sensor.KindRTLSDR)
	if err := s.FlushWAL(); err != nil {
		t.Fatalf("FlushWAL: %v", err)
	}
	ts.Close()
	// No s.Close(): the process "crashes" here.

	s2, err := Open(durableConfig(dataDir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.StoreSize(47, sensor.KindRTLSDR); got != wantSize {
		t.Errorf("recovered store size = %d, want %d", got, wantSize)
	}
	if got := s2.ModelVersion(47, sensor.KindRTLSDR); got != wantVersion {
		t.Errorf("recovered model version = %d, want %d", got, wantVersion)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := exportCSV(t, ts2, 47, 1); got != wantCSV {
		t.Error("recovered store CSV differs from pre-crash export")
	}
}

// TestAdminSnapshotCompacts exercises POST /v1/admin/snapshot and that a
// recovery after compaction sees the same state.
func TestAdminSnapshotCompacts(t *testing.T) {
	dataDir := t.TempDir()
	s, err := Open(durableConfig(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %s", resp.Status)
	}
	if len(out) != 1 || !out[0].OK || out[0].Channel != 47 {
		t.Fatalf("snapshot report = %+v", out)
	}
	wantVersion := s.ModelVersion(47, sensor.KindRTLSDR)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(dataDir))
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	if got := s2.ModelVersion(47, sensor.KindRTLSDR); got != wantVersion {
		t.Errorf("model version after compaction = %d, want %d", got, wantVersion)
	}
	if got := s2.StoreSize(47, sensor.KindRTLSDR); got != 600 {
		t.Errorf("store size after compaction = %d, want 600", got)
	}
}

// TestAdminSnapshotWithoutDataDir answers 503, not a panic or 500.
func TestAdminSnapshotWithoutDataDir(t *testing.T) {
	_, ts := bootedServer(t)
	resp, err := http.Post(ts.URL+"/v1/admin/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("snapshot without data dir = %s, want 503", resp.Status)
	}
}

// TestAutoSnapshotTriggers checks the SnapshotEvery policy: enough
// uploaded readings trigger a background compaction without any admin
// call.
func TestAutoSnapshotTriggers(t *testing.T) {
	dataDir := t.TempDir()
	cfg := durableConfig(dataDir)
	cfg.SnapshotEvery = 10
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	up := UploadJSON{CISpanDB: 0.5}
	for _, r := range synthReadings(20, 47, 3) {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, _ := json.Marshal(up)
	resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	// The compaction runs in the background; force a second, synchronous
	// one to rendezvous with it, then verify at least one completed.
	key := storeKey{rfenv.Channel(47), sensor.KindRTLSDR}
	if err := s.snapshotStore(key); err != nil {
		t.Fatalf("snapshotStore: %v", err)
	}
}

// TestModelWrongMethodIs405 pins the wrong-method contract: POST to the
// GET-only /v1/model answers 405 Method Not Allowed (the Go 1.22 method
// pattern behavior), never 404 — a 404 would make a misconfigured client
// believe the model does not exist.
func TestModelWrongMethodIs405(t *testing.T) {
	_, ts := bootedServer(t)
	resp, err := http.Post(ts.URL+"/v1/model?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/model = %s, want 405", resp.Status)
	}
	// And the same for a GET against the POST-only upload route.
	resp, err = http.Get(ts.URL + "/v1/readings")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/readings = %s, want 405", resp.Status)
	}
}

// TestStatsSortedWithoutResort pins the maintained-key-order behavior:
// stores created in arbitrary order come out of /v1/stats sorted by
// (channel, sensor).
func TestStatsSortedWithoutResort(t *testing.T) {
	s := New(Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	for _, ch := range []rfenv.Channel{47, 30, 51, 14} {
		if _, err := s.updaterFor(ch, sensor.KindRTLSDR); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.updaterFor(30, sensor.KindUSRPB200); err != nil {
		t.Fatal(err)
	}
	keys, _ := s.storeSnapshot()
	var got []storeKey
	got = append(got, keys...)
	want := []storeKey{
		{14, sensor.KindRTLSDR},
		{30, sensor.KindRTLSDR},
		{30, sensor.KindUSRPB200},
		{47, sensor.KindRTLSDR},
		{51, sensor.KindRTLSDR},
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("keys[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestOpenRejectsCorruptDataDir: a flipped byte in the checkpoint record
// or in a sealed segment makes Open fail loudly, naming the file and the
// runbook, instead of serving partial data.
func TestOpenRejectsCorruptDataDir(t *testing.T) {
	for _, name := range []string{"checkpoint.bin", "wal.0000000001.log"} {
		dataDir := t.TempDir()
		s, err := Open(durableConfig(dataDir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
			t.Fatal(err)
		}
		key := storeKey{rfenv.Channel(47), sensor.KindRTLSDR}
		if err := s.snapshotStore(key); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		corruptFile(t, dataDir, name)
		if _, err := Open(durableConfig(dataDir)); err == nil {
			t.Fatalf("Open accepted a corrupt %s", name)
		} else if !strings.Contains(err.Error(), "OPERATIONS.md") || !strings.Contains(err.Error(), name) {
			t.Errorf("corrupt %s: error does not name the file and the runbook: %v", name, err)
		}
	}
}

// orderTap is a replication tap that, when it sees a retrain, runs check
// — under the store lock, between the journal's WAL step and its
// watcher wake-up.
type orderTap struct {
	check    func()
	retrains int
}

func (*orderTap) TapReadings(context.Context, rfenv.Channel, sensor.Kind, []dataset.Reading) {}

func (o *orderTap) TapRetrain(context.Context, rfenv.Channel, sensor.Kind, int, int) {
	o.retrains++
	if o.check != nil {
		o.check()
	}
}

// TestStoreJournalOrder pins the one sequence a store's journal runs on
// a retrain: WAL record, then the replication tap, then the grid rebuild
// trigger, then — last — the watcher wake-up, so a pushed model never
// races ahead of durability. The retrain's trace shows the last two as
// spans in that order.
func TestStoreJournalOrder(t *testing.T) {
	tap := &orderTap{}
	cfg := durableConfig(t.TempDir())
	cfg.Tap = tap
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	key := storeKey{47, sensor.KindRTLSDR}
	parked := s.hub.watch(key)
	walAppends := s.metrics.Counter("waldo_wal_appends_total", "", "store", "47/1")
	walBefore, retrainsBefore := walAppends.Value(), tap.retrains
	var walFirst, bumpLater bool
	tap.check = func() {
		walFirst = walAppends.Value() == walBefore+1
		bumpLater = s.hub.watch(key) == parked
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/retrain?channel=47&sensor=1", nil)
	sc := telemetry.NewSpanContext()
	req.Header.Set(telemetry.TraceHeader, sc.Header())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("retrain = %d: %s", rec.Code, rec.Body)
	}
	if tap.retrains != retrainsBefore+1 {
		t.Fatalf("tap saw %d retrains, want 1", tap.retrains-retrainsBefore)
	}
	if !walFirst {
		t.Error("the tap saw the retrain before the WAL had its record")
	}
	if !bumpLater {
		t.Error("watchers were woken before the tap saw the retrain")
	}
	if s.hub.watch(key) == parked {
		t.Error("the retrain never woke the store's watchers")
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?trace="+sc.Trace.String(), nil))
	var out struct {
		Traces []telemetry.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Traces) != 1 {
		t.Fatalf("retained traces = %d (err %v), want the retrain's one", len(out.Traces), err)
	}
	var order []string
	for _, sp := range out.Traces[0].Spans {
		if sp.Name == "geoindex/schedule" || sp.Name == "watch/bump" {
			order = append(order, sp.Name)
		}
	}
	if want := []string{"geoindex/schedule", "watch/bump"}; !reflect.DeepEqual(order, want) {
		t.Errorf("journal spans in the retrain trace = %v, want %v", order, want)
	}
}
