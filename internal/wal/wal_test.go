package wal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

const (
	testCh   = rfenv.Channel(47)
	testKind = sensor.KindRTLSDR
)

// testReading builds a valid reading distinguishable by seq.
func testReading(seq int) dataset.Reading {
	return dataset.Reading{
		Seq:     seq,
		Loc:     geo.Point{Lat: 40.0 + float64(seq)*1e-4, Lon: -75.0 - float64(seq)*1e-4},
		Channel: testCh,
		Sensor:  testKind,
		Signal:  features.Signal{RSSdBm: -90 + float64(seq%30), CFTdB: 3.5, AFTdB: 1.25},
		AltM:    float64(seq % 4),
		TrueDBm: -88.5,
	}
}

func testReadings(from, n int) []dataset.Reading {
	rs := make([]dataset.Reading, n)
	for i := range rs {
		rs[i] = testReading(from + i)
	}
	return rs
}

// frame renders one WAL record: header (length + CRC) and payload.
func frame(payload []byte) []byte {
	return appendFrame(make([]byte, 0, recordHeader+len(payload)), payload)
}

// appendRecord is the store mutation record that journals rs.
func appendRecord(rs []dataset.Reading) []byte {
	rec, _ := core.AppendReadingsRecord(nil, rs)
	return rec
}

func openTestStore(t *testing.T, dir string, reg *telemetry.Registry) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := OpenStore(dir, testCh, testKind, StoreOptions{Metrics: reg})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s, rec
}

// flat returns the recovered store as one slice (nil when empty).
func flat(rec *Recovered) []dataset.Reading {
	return rec.Readings.View().AppendTo(nil)
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{1, 42, 9999999999} {
		name := segName(epoch)
		got, ok := parseSegName(name)
		if !ok || got != epoch {
			t.Errorf("parseSegName(%q) = %d, %v; want %d, true", name, got, ok, epoch)
		}
	}
	for _, bad := range []string{"wal.log", "wal.123.log", "wal.00000000ab.log", "snapshot.bin", "wal.0000000001.log.tmp"} {
		if _, ok := parseSegName(bad); ok {
			t.Errorf("parseSegName(%q) accepted", bad)
		}
	}
}

func TestStoreDirNameRoundTrip(t *testing.T) {
	name := StoreDirName(testCh, testKind)
	ch, kind, ok := ParseStoreDirName(name)
	if !ok || ch != testCh || kind != testKind {
		t.Fatalf("ParseStoreDirName(%q) = %v, %v, %v", name, ch, kind, ok)
	}
	for _, bad := range []string{"", "foo", "ch47", "ch47-s", "ch47-s1x", "ch047-s1", "ch47-s1 "} {
		if _, _, ok := ParseStoreDirName(bad); ok {
			t.Errorf("ParseStoreDirName(%q) accepted", bad)
		}
	}
}

func TestStoreRecoverAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, rec := openTestStore(t, dir, nil)
	if rec.Readings.Len() != 0 || rec.ModelVersion != 0 {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	s.AppendReadings(context.Background(), testReadings(0, 3))
	s.Append(context.Background(), core.AppendRetrainRecord(nil, 1, 3))
	s.AppendReadings(context.Background(), testReadings(3, 2))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openTestStore(t, dir, nil)
	defer s2.Close()
	if !reflect.DeepEqual(flat(rec2), testReadings(0, 5)) {
		t.Errorf("recovered readings mismatch: got %d readings", rec2.Readings.Len())
	}
	if rec2.ModelVersion != 1 || rec2.TrainedCount != 3 {
		t.Errorf("recovered model = v%d/%d, want v1/3", rec2.ModelVersion, rec2.TrainedCount)
	}
	if rec2.Stats.Records != 3 || rec2.Stats.TornTail {
		t.Errorf("replay stats = %+v", rec2.Stats)
	}
}

func TestStoreRecoverWithoutClose(t *testing.T) {
	// Sync makes data durable even if the process then dies without
	// Close — simulated by simply abandoning the store.
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, nil)
	s.AppendReadings(context.Background(), testReadings(0, 4))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// no Close: crash.

	s2, rec := openTestStore(t, dir, nil)
	defer s2.Close()
	if !reflect.DeepEqual(flat(rec), testReadings(0, 4)) {
		t.Errorf("recovered %d readings, want 4", rec.Readings.Len())
	}
}

// TestCheckpointPinsSealedSegments: a checkpoint rewrites and deletes
// nothing — the sealed segments are its data — and bounds what recovery
// has to take on trust: below its epoch the segments must add up to the
// recorded counts, above it only framing and CRCs can vouch for them.
func TestCheckpointPinsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, nil)
	s.AppendReadings(context.Background(), testReadings(0, 3))
	s.AppendReadings(context.Background(), testReadings(3, 2))
	s.Append(context.Background(), core.AppendRetrainRecord(nil, 1, 5))
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	const epoch = 2 // the cut sealed segment 1
	sealed, err := os.ReadFile(filepath.Join(dir, segName(epoch-1)))
	if err != nil {
		t.Fatal(err)
	}
	// Appends after the cut belong to the new segment, not the checkpoint.
	s.AppendReadings(context.Background(), testReadings(5, 1))
	s.AppendReadings(context.Background(), testReadings(6, 1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The sealed segment is still there, byte for byte.
	if after, err := os.ReadFile(filepath.Join(dir, segName(epoch-1))); err != nil || !bytes.Equal(after, sealed) {
		t.Fatalf("sealed segment changed across the checkpoint (err %v)", err)
	}
	if st, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil || st.Size() != checkpointSize {
		t.Fatalf("checkpoint record: %v, want a %d-byte file", err, checkpointSize)
	}

	s2, rec := openTestStore(t, dir, nil)
	if !reflect.DeepEqual(flat(rec), testReadings(0, 7)) {
		t.Errorf("recovered %d readings, want 7 (5 sealed + 2 tail)", rec.Readings.Len())
	}
	if rec.ModelVersion != 1 || rec.TrainedCount != 5 {
		t.Errorf("recovered model = v%d/%d, want v1/5", rec.ModelVersion, rec.TrainedCount)
	}
	s2.Close()

	// dropLastRecord cuts a segment back by its final record, at a record
	// boundary: framing and CRCs still hold.
	dropLastRecord := func(dir string, epoch uint64) {
		t.Helper()
		path := filepath.Join(dir, segName(epoch))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		last := len(frame(appendRecord(testReadings(0, 1))))
		if epoch < 2 { // segment 1 ends with the 9-byte retrain marker
			last = recordHeader + 9
		}
		if err := os.WriteFile(path, data[:len(data)-last], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Above the checkpoint nothing pins the content: a shorter active
	// segment is indistinguishable from an earlier crash.
	above := copyStoreDir(t, dir)
	dropLastRecord(above, epoch)
	s3, rec3, err := OpenStore(above, testCh, testKind, StoreOptions{})
	if err != nil {
		t.Fatalf("shorter active segment: %v", err)
	}
	if rec3.Readings.Len() != 6 {
		t.Errorf("recovered %d readings, want 6", rec3.Readings.Len())
	}
	s3.Close()

	// Below it the same cut is caught: the sealed segment no longer adds
	// up to what the record pinned.
	below := copyStoreDir(t, dir)
	dropLastRecord(below, epoch-1)
	_, _, err = OpenStore(below, testCh, testKind, StoreOptions{})
	if err == nil {
		t.Fatal("OpenStore accepted a sealed segment that lost a record")
	}
	if !strings.Contains(err.Error(), checkpointName) || !strings.Contains(err.Error(), "OPERATIONS.md") {
		t.Errorf("error does not name the checkpoint record and the runbook: %v", err)
	}
}

// TestMissingSegmentRefusesToOpen: sealed segments are never deleted, so
// a hole in the epoch sequence is lost data, not compaction.
func TestMissingSegmentRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, nil)
	for i := 0; i < 3; i++ {
		s.AppendReadings(context.Background(), testReadings(i, 1))
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for _, missing := range []uint64{1, 2, 3} {
		cut := copyStoreDir(t, dir)
		if err := os.Remove(filepath.Join(cut, segName(missing))); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenStore(cut, testCh, testKind, StoreOptions{})
		if err == nil {
			t.Fatalf("OpenStore accepted a store without %s", segName(missing))
		}
		if !strings.Contains(err.Error(), segName(missing)) || !strings.Contains(err.Error(), "OPERATIONS.md") {
			t.Errorf("error does not name %s and the runbook: %v", segName(missing), err)
		}
	}
	// A checkpoint cut at a segment that is gone (here: the newest) is
	// the same hole seen from the record's side.
	s2, _ := openTestStore(t, dir, nil)
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := os.Remove(filepath.Join(dir, segName(5))); err != nil { // the checkpoint's epoch
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, testCh, testKind, StoreOptions{}); err == nil || !strings.Contains(err.Error(), checkpointName) {
		t.Fatalf("OpenStore with the checkpoint's own segment gone: %v", err)
	}
}

// noCreateFS fails every Create: the checkpoint record's temp file never
// exists, so a checkpoint ends after its seal.
type noCreateFS struct{ FS }

func (noCreateFS) Create(string) (File, error) { return nil, errInjected }

func TestCrashBetweenRotateAndSnapshot(t *testing.T) {
	// A crash after the segment cut but before the checkpoint record
	// lands must recover everything from the log alone.
	dir := t.TempDir()
	s, _, err := OpenStore(dir, testCh, testKind, StoreOptions{FS: noCreateFS{OSFS{}}})
	if err != nil {
		t.Fatal(err)
	}
	s.AppendReadings(context.Background(), testReadings(0, 3))
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded without its record")
	}
	s.AppendReadings(context.Background(), testReadings(3, 2))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// crash: the record never landed, and the store is abandoned.

	s2, rec := openTestStore(t, dir, nil)
	defer s2.Close()
	if !reflect.DeepEqual(flat(rec), testReadings(0, 5)) {
		t.Errorf("recovered %d readings, want 5", rec.Readings.Len())
	}
	if rec.Stats.Segments != 2 {
		t.Errorf("replayed %d segments, want 2", rec.Stats.Segments)
	}
}

func TestTornTailTruncatedAndCounted(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	s, _ := openTestStore(t, dir, nil)
	s.AppendReadings(context.Background(), testReadings(0, 3))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate an append torn mid-write: a partial frame at EOF.
	seg := filepath.Join(dir, segName(1))
	full := frame([]byte{core.RecordAppend, 9, 9, 9})
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := openTestStore(t, dir, reg)
	if !rec.Stats.TornTail {
		t.Error("torn tail not reported")
	}
	if !reflect.DeepEqual(flat(rec), testReadings(0, 3)) {
		t.Errorf("recovered %d readings, want 3", rec.Readings.Len())
	}
	scope := fmt.Sprintf("%d/%d", int(testCh), int(testKind))
	if v := reg.Counter("waldo_wal_replay_torn_total", "", "store", scope).Value(); v != 1 {
		t.Errorf("waldo_wal_replay_torn_total = %d, want 1", v)
	}
	s2.Close()

	// The torn bytes were truncated away: a second recovery is clean.
	s3, rec3 := openTestStore(t, dir, nil)
	defer s3.Close()
	if rec3.Stats.TornTail {
		t.Error("torn tail reported again after truncation")
	}
}

// TestCorruptCheckpointRefusesToOpen: a damaged checkpoint record, or a
// damaged sealed segment, fails the open with an error that names the
// file and the runbook instead of serving a store with a hole in it.
func TestCorruptCheckpointRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, nil)
	s.AppendReadings(context.Background(), testReadings(0, 3))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	const epoch = 2
	for _, name := range []string{checkpointName, segName(epoch - 1)} {
		bad := copyStoreDir(t, dir)
		path := filepath.Join(bad, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenStore(bad, testCh, testKind, StoreOptions{})
		if err == nil {
			t.Fatalf("OpenStore accepted a corrupt %s", name)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "OPERATIONS.md") {
			t.Errorf("corrupt %s: error does not name the file and the runbook: %v", name, err)
		}
	}
	// A record that is intact but disagrees with the segments (here: one
	// from another point in the store's life) is refused the same way.
	if err := os.WriteFile(filepath.Join(dir, checkpointName),
		encodeCheckpoint(testCh, testKind, checkpoint{epoch: epoch, readings: 2}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, testCh, testKind, StoreOptions{}); err == nil || !strings.Contains(err.Error(), checkpointName) {
		t.Fatalf("OpenStore with a disagreeing checkpoint record: %v", err)
	}
}

func TestCheckpointIdentityChecked(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The same directory opened under a different store identity must be
	// rejected, not silently merged.
	if _, _, err := OpenStore(dir, testCh+1, testKind, StoreOptions{}); err == nil {
		t.Fatal("OpenStore accepted a checkpoint for another channel")
	}
	if _, _, err := OpenStore(dir, testCh, testKind+1, StoreOptions{}); err == nil {
		t.Fatal("OpenStore accepted a checkpoint for another sensor")
	}
}

func TestWedgedLogFailStop(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	fs := &flakyFS{FS: OSFS{}}
	s, _, err := OpenStore(dir, testCh, testKind, StoreOptions{FS: fs, Metrics: reg})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer s.Close()

	fs.failSyncs.Store(true)
	s.AppendReadings(context.Background(), testReadings(0, 1))
	if err := s.Sync(); err == nil {
		t.Fatal("Sync succeeded through a failing fsync")
	}
	// The log is now wedged: further journal records are dropped and
	// counted, never silently lost.
	s.AppendReadings(context.Background(), testReadings(1, 1))
	s.Append(context.Background(), core.AppendRetrainRecord(nil, 1, 1))
	scope := fmt.Sprintf("%d/%d", int(testCh), int(testKind))
	if v := reg.Counter("waldo_wal_dropped_records_total", "", "store", scope).Value(); v != 2 {
		t.Errorf("waldo_wal_dropped_records_total = %d, want 2", v)
	}
	if v := reg.Gauge("waldo_wal_failed", "", "store", scope).Value(); v != 1 {
		t.Errorf("waldo_wal_failed = %v, want 1", v)
	}
	if v := reg.Counter("waldo_wal_fsync_errors_total", "", "store", scope).Value(); v == 0 {
		t.Error("waldo_wal_fsync_errors_total not incremented")
	}
}
