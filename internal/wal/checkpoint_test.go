package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// encodeSnapshot renders a v1 snapshot file the way the binaries that
// wrote them did. Nothing outside the tests writes this format any more:
// it is the reference the v1 decoder is checked against.
func encodeSnapshot(ch rfenv.Channel, kind sensor.Kind, epoch uint64, modelVersion, trainedCount int, readings []dataset.Reading) []byte {
	buf := make([]byte, 0, snapHeader+4+len(readings)*core.ReadingWireSize+4)
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(ch))
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(modelVersion))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(trainedCount))
	buf = core.AppendReadingsWire(buf, readings)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// countingFS counts the bytes written through the wal.FS seam.
type countingFS struct {
	FS
	written atomic.Int64
}

func (c *countingFS) OpenAppend(path string) (File, error) {
	f, err := c.FS.OpenAppend(path)
	return &countingFile{f, c}, err
}

func (c *countingFS) Create(path string) (File, error) {
	f, err := c.FS.Create(path)
	return &countingFile{f, c}, err
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

// TestCheckpointCostIndependentOfStoreSize: a checkpoint writes the same
// bytes for a 10 000-reading store as for a 500 000-reading one when the
// same delta was journaled since the previous checkpoint.
func TestCheckpointCostIndependentOfStoreSize(t *testing.T) {
	const delta = 1000
	cost := func(size int) int64 {
		fs := &countingFS{FS: OSFS{}}
		s, _, err := OpenStore(t.TempDir(), testCh, testKind, StoreOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkpoint := func() {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		batch := testReadings(0, delta)
		for n := 0; n < size; n += delta {
			s.AppendReadings(context.Background(), batch)
		}
		checkpoint()
		s.AppendReadings(context.Background(), batch)
		if err := s.Sync(); err != nil { // the delta is the log's business, not the checkpoint's
			t.Fatal(err)
		}
		before := fs.written.Load()
		checkpoint()
		return fs.written.Load() - before
	}
	small, large := cost(10_000), cost(500_000)
	if small != large {
		t.Errorf("checkpoint after a %d-reading delta wrote %d bytes on a 10k store and %d on a 500k store", delta, small, large)
	}
	if small != checkpointSize {
		t.Errorf("checkpoint wrote %d bytes, want the %d-byte record and nothing else", small, checkpointSize)
	}
}

// TestV1SnapshotIsAnImmutableBase: a directory in the layout compacting
// binaries left — snapshot.bin plus only the segments from its epoch on,
// possibly a stale one below it — recovers snapshot-then-segments, is
// never rewritten, and keeps working across checkpoints in the current
// format.
func TestV1SnapshotIsAnImmutableBase(t *testing.T) {
	dir := t.TempDir()
	snap := encodeSnapshot(testCh, testKind, 4, 2, 5, testReadings(0, 6))
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := frame(appendRecord(testReadings(0, 6))) // covered by the snapshot
	if err := os.WriteFile(filepath.Join(dir, segName(3)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	tail := frame(appendRecord(testReadings(6, 2)))
	if err := os.WriteFile(filepath.Join(dir, segName(4)), tail, 0o644); err != nil {
		t.Fatal(err)
	}

	s, rec := openTestStore(t, dir, nil)
	if !reflect.DeepEqual(flat(rec), testReadings(0, 8)) || rec.ModelVersion != 2 || rec.TrainedCount != 5 {
		t.Fatalf("recovered %d readings, model v%d/%d; want 8, v2/5", rec.Readings.Len(), rec.ModelVersion, rec.TrainedCount)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(3))); !os.IsNotExist(err) {
		t.Errorf("the stale segment below the v1 snapshot's epoch was kept: %v", err)
	}
	s.AppendReadings(context.Background(), testReadings(8, 1))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := decodeCheckpoint(data, testCh, testKind); err != nil || cp != (checkpoint{epoch: 5, modelVersion: 2, trainedCount: 5, readings: 9}) {
		t.Errorf("checkpoint record %+v (err %v), want epoch 5 (the v1 epoch continues) over 9 readings and v2/5", cp, err)
	}
	s.AppendReadings(context.Background(), testReadings(9, 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, snapshotName)); err != nil || !bytes.Equal(after, snap) {
		t.Fatalf("the v1 snapshot was rewritten (err %v)", err)
	}

	s2, rec2 := openTestStore(t, dir, nil)
	defer s2.Close()
	if !reflect.DeepEqual(flat(rec2), testReadings(0, 10)) || rec2.ModelVersion != 2 || rec2.TrainedCount != 5 {
		t.Fatalf("after a checkpoint: recovered %d readings, model v%d/%d; want 10, v2/5",
			rec2.Readings.Len(), rec2.ModelVersion, rec2.TrainedCount)
	}

	// A checkpoint record older than the v1 base (an old binary ran on
	// the directory after a new one, and compacted) no longer applies.
	old := t.TempDir()
	for name, data := range map[string][]byte{
		snapshotName:   snap,
		segName(4):     tail,
		checkpointName: encodeCheckpoint(testCh, testKind, checkpoint{epoch: 2, readings: 3}),
	} {
		if err := os.WriteFile(filepath.Join(old, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s3, rec3 := openTestStore(t, old, nil)
	defer s3.Close()
	if rec3.Readings.Len() != 8 {
		t.Errorf("recovered %d readings past a superseded checkpoint record, want 8", rec3.Readings.Len())
	}
}

// heldWriteFS holds the first segment write made while armed until
// release is closed, keeping the flusher mid-write.
type heldWriteFS struct {
	FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *heldWriteFS) OpenAppend(path string) (File, error) {
	f, err := g.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &heldWriteFile{f, g}, nil
}

type heldWriteFile struct {
	File
	fs *heldWriteFS
}

func (f *heldWriteFile) Write(p []byte) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Write(p)
}

// TestCheckpointCutInsideABatch: a cut the CheckpointEvery policy marks
// in the middle of one group-commit batch splits it at that record
// boundary — the records before it are sealed into the old segment and
// pinned by the checkpoint record, the rest start the next segment.
func TestCheckpointCutInsideABatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs := &heldWriteFS{FS: OSFS{}, entered: make(chan struct{}), release: make(chan struct{})}
	fs.armed.Store(true)
	s, _, err := OpenStore(dir, testCh, testKind, StoreOptions{FS: fs, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.AppendReadings(ctx, testReadings(0, 1))
	<-fs.entered // the flusher is writing the first record
	s.AppendReadings(ctx, testReadings(1, 2))
	s.AppendReadings(ctx, testReadings(3, 1)) // the 4th reading: the cut
	s.AppendReadings(ctx, testReadings(4, 2))
	close(fs.release)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := decodeCheckpoint(data, testCh, testKind); err != nil || cp != (checkpoint{epoch: 2, readings: 4}) {
		t.Errorf("checkpoint record %+v (err %v), want epoch 2 over 4 readings", cp, err)
	}
	var want1 []byte
	for _, rs := range [][]dataset.Reading{testReadings(0, 1), testReadings(1, 2), testReadings(3, 1)} {
		want1 = append(want1, frame(appendRecord(rs))...)
	}
	for epoch, want := range map[uint64][]byte{1: want1, 2: frame(appendRecord(testReadings(4, 2)))} {
		if got, err := os.ReadFile(filepath.Join(dir, segName(epoch))); err != nil || !bytes.Equal(got, want) {
			t.Errorf("segment %d holds %d bytes (err %v), want the %d of its records", epoch, len(got), err, len(want))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openTestStore(t, dir, nil)
	defer s2.Close()
	if !reflect.DeepEqual(flat(rec), testReadings(0, 6)) {
		t.Errorf("recovered %d readings, want all 6 in order", rec.Readings.Len())
	}
}
