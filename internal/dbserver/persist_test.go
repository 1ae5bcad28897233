package dbserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/faultinject"
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

// armedFsyncFault fails every fsync once armed.
type armedFsyncFault struct{ armed atomic.Bool }

func (p *armedFsyncFault) Decide(uint64) faultinject.Fault {
	if p.armed.Load() {
		return faultinject.Fault{Kind: faultinject.FsyncErr}
	}
	return faultinject.Fault{}
}

// TestAdminSnapshotFailureIsJSON: a snapshot whose store fails answers
// 500 with the per-store report still labelled application/json.
func TestAdminSnapshotFailureIsJSON(t *testing.T) {
	plan := &armedFsyncFault{}
	cfg := durableConfig(t.TempDir())
	cfg.WALFS = &faultinject.FaultFS{Plan: plan}
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

	plan.armed.Store(true)
	resp, err := http.Post(ts.URL+"/v1/admin/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("snapshot with a failing fsync = %s, want 500", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var out []SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].OK || out[0].Error == "" {
		t.Fatalf("snapshot report = %+v, want one failed store", out)
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
	if err := s.wals[key].Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
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
		if err := s.wals[key].Checkpoint(); err != nil {
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

func (o *orderTap) Record(_ context.Context, _ rfenv.Channel, _ sensor.Kind, rec []byte) {
	if rec[0] != core.RecordRetrain {
		return
	}
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

// journalRecords returns the record payloads of a store directory's WAL
// segments, in journal order (segment names sort in epoch order).
func journalRecords(t *testing.T, storeDir string) [][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "wal.*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", storeDir, err)
	}
	var recs [][]byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 8 { // u32 length | u32 CRC | payload
			n := int(binary.LittleEndian.Uint32(data))
			if len(data) < 8+n {
				break
			}
			recs = append(recs, data[8:8+n])
			data = data[8+n:]
		}
		if len(data) != 0 {
			t.Fatalf("%s: %d bytes after the last whole record", seg, len(data))
		}
	}
	return recs
}

// TestDurableBootstrapOverTheRecordBound: a bootstrap larger than one
// append record may hold is journaled as records within the bound — a
// single record for a bootstrap of about 1 M readings would pass the
// WAL's 64 MiB record limit and be dropped, while the retrain marker
// after it names its readings — and recovers exactly.
func TestDurableBootstrapOverTheRecordBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := synthReadings(core.MaxBatchReadings+1, 47, 1)
	if err := s.Bootstrap(seed); err != nil {
		t.Fatal(err)
	}
	version := s.ModelVersion(47, sensor.KindRTLSDR)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appends := 0
	for i, rec := range journalRecords(t, filepath.Join(dir, "ch47-s1")) {
		if rec[0] != core.RecordAppend {
			continue
		}
		appends++
		if n := binary.LittleEndian.Uint32(rec[1:]); n > core.MaxBatchReadings {
			t.Errorf("record %d journals %d readings, bound %d", i, n, core.MaxBatchReadings)
		}
	}
	if appends != 2 {
		t.Errorf("%d readings journaled in %d append records, want 2", len(seed), appends)
	}

	s, err = Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u, ok := s.lookup(47, sensor.KindRTLSDR)
	if !ok {
		t.Fatal("reopened server has no 47/RTL store")
	}
	if got := u.Readings(); !reflect.DeepEqual(got, seed) {
		t.Errorf("recovered %d readings, bootstrapped %d (or they differ)", len(got), len(seed))
	}
	if got := s.ModelVersion(47, sensor.KindRTLSDR); got != version {
		t.Errorf("recovered model v%d, served v%d", got, version)
	}
}

// TestApplyRecordRefusalCreatesNothing: a replicated record the server
// refuses leaves no trace — not the store, in memory or as a WAL
// directory. Two refusals: a retrain record for a store the server does
// not hold, and an append record with one reading of another store,
// after readings of this one.
func TestApplyRecordRefusalCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mixed := synthReadings(3, 47, 1)
	mixed[2].Channel = 46
	appendRec, _ := core.AppendReadingsRecord(nil, mixed)
	for name, rec := range map[string][]byte{
		"retrain for an absent store":   core.AppendRetrainRecord(nil, 1, 5),
		"append with a foreign reading": appendRec,
	} {
		if err := s.ApplyRecord(context.Background(), 47, sensor.KindRTLSDR, rec); err == nil {
			t.Errorf("%s: applied", name)
		}
		if _, ok := s.lookup(47, sensor.KindRTLSDR); ok {
			t.Fatalf("%s: refused, but created the store", name)
		}
		if _, err := os.Stat(filepath.Join(dir, "ch47-s1")); !os.IsNotExist(err) {
			t.Fatalf("%s: refused, but left a store directory (stat: %v)", name, err)
		}
	}
}
