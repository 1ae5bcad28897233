package faultinject

import (
	"context"
	"reflect"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wal"
)

func walReading(seq int) dataset.Reading {
	return dataset.Reading{
		Seq:     seq,
		Loc:     geo.Point{Lat: 40.1, Lon: -74.9},
		Channel: rfenv.Channel(47),
		Sensor:  sensor.KindRTLSDR,
		Signal:  features.Signal{RSSdBm: -95, CFTdB: 2, AFTdB: 1},
	}
}

// TestFaultFSFsyncErrWedgesLog: an injected fsync failure must wedge the
// WAL fail-stop — Sync reports the error, later appends are dropped, and
// no data is silently half-acknowledged.
func TestFaultFSFsyncErrWedgesLog(t *testing.T) {
	fs := &FaultFS{Plan: Script{
		{},               // op 0: the group-commit batch write
		{Kind: FsyncErr}, // op 1: its fsync
	}}
	s, _, err := wal.OpenStore(t.TempDir(), 47, sensor.KindRTLSDR, wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer s.Close()
	s.AppendReadings(context.Background(), []dataset.Reading{walReading(0)})
	if err := s.Sync(); err == nil {
		t.Fatal("Sync succeeded through an injected fsync error")
	}
	if got := fs.Count(FsyncErr); got != 1 {
		t.Errorf("FsyncErr count = %d, want 1", got)
	}
}

// TestFaultFSPartialWriteRecoversAsTorn: a write cut short mid-record is
// exactly a torn tail; recovery must truncate it and keep the earlier
// durable records.
func TestFaultFSPartialWriteRecoversAsTorn(t *testing.T) {
	dir := t.TempDir()

	// Build durable state with the real filesystem first.
	s, _, err := wal.OpenStore(dir, 47, sensor.KindRTLSDR, wal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []dataset.Reading{walReading(0), walReading(1)}
	s.AppendReadings(context.Background(), want)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen through a FaultFS that tears the next write in half, and
	// crash (abandon) after the failed append.
	fs := &FaultFS{Plan: Script{{Kind: PartialWrite}}}
	s2, rec, err := wal.OpenStore(dir, 47, sensor.KindRTLSDR, wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !reflect.DeepEqual(rec.Readings.View().Flatten(), want) {
		t.Fatalf("recovered %d readings before fault, want 2", rec.Readings.Len())
	}
	s2.AppendReadings(context.Background(), []dataset.Reading{walReading(2)})
	if err := s2.Sync(); err == nil {
		t.Fatal("Sync succeeded through an injected partial write")
	}
	// no Close: the torn half-record stays on disk.

	s3, rec3, err := wal.OpenStore(dir, 47, sensor.KindRTLSDR, wal.StoreOptions{})
	if err != nil {
		t.Fatalf("recovery after torn write: %v", err)
	}
	defer s3.Close()
	if !rec3.Stats.TornTail {
		t.Error("torn tail not detected after partial write")
	}
	if !reflect.DeepEqual(rec3.Readings.View().Flatten(), want) {
		t.Errorf("recovered %d readings, want the 2 durable ones", rec3.Readings.Len())
	}
}
