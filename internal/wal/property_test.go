package wal

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// copyStoreDir clones a store directory so destructive mutations (torn
// tails, bit flips) run against a scratch copy.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := (OSFS{}).ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// buildStore writes nBatches single-reading batches and syncs, returning
// the store directory (closed, crash-shaped).
func buildStore(t *testing.T, nBatches int) string {
	t.Helper()
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, nil)
	for i := 0; i < nBatches; i++ {
		s.AppendReadings(context.Background(), testReadings(i, 1))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTornWriteEveryOffset is the exhaustive torn-tail property: cutting
// the segment at EVERY byte offset inside the final record must recover
// all earlier records, report (and truncate) the torn tail, and never
// error. Cutting exactly at the record boundary is a clean log.
func TestTornWriteEveryOffset(t *testing.T) {
	const nBatches = 4
	src := buildStore(t, nBatches)
	seg := filepath.Join(src, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := len(data) / nBatches
	if len(data)%nBatches != 0 {
		t.Fatalf("segment %d bytes not divisible into %d equal records", len(data), nBatches)
	}
	boundary := len(data) - recSize // last intact boundary once torn

	for cut := boundary; cut <= len(data); cut++ {
		dir := copyStoreDir(t, src)
		path := filepath.Join(dir, segName(1))
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		s, rec, err := OpenStore(dir, testCh, testKind, StoreOptions{})
		if err != nil {
			t.Fatalf("cut=%d: OpenStore: %v", cut, err)
		}
		wantTorn := cut != boundary && cut != len(data)
		wantReadings := nBatches - 1
		if cut == len(data) {
			wantReadings = nBatches
		}
		if rec.Stats.TornTail != wantTorn {
			t.Errorf("cut=%d: TornTail=%v, want %v", cut, rec.Stats.TornTail, wantTorn)
		}
		if rec.Readings.Len() != wantReadings {
			t.Errorf("cut=%d: recovered %d readings, want %d", cut, rec.Readings.Len(), wantReadings)
		}
		if !reflect.DeepEqual(flat(rec), testReadings(0, wantReadings)) {
			t.Errorf("cut=%d: recovered readings differ from the intact prefix", cut)
		}
		s.Close()

		// Truncation must have restored the boundary: reopening is clean.
		if wantTorn {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(boundary) {
				t.Errorf("cut=%d: file is %d bytes after recovery, want %d", cut, st.Size(), boundary)
			}
			s2, rec2, err := OpenStore(dir, testCh, testKind, StoreOptions{})
			if err != nil {
				t.Fatalf("cut=%d: second OpenStore: %v", cut, err)
			}
			if rec2.Stats.TornTail {
				t.Errorf("cut=%d: torn tail reported again on a truncated log", cut)
			}
			s2.Close()
		}
	}
}

// TestCorruptCRCEveryRecord flips one payload byte in each record in
// turn: recovery must reject the record (counted, no panic) and stop
// with an error locating it — even in the final segment, because a
// complete record with a bad CRC is corruption, not a torn write.
func TestCorruptCRCEveryRecord(t *testing.T) {
	const nBatches = 4
	src := buildStore(t, nBatches)
	data, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	recSize := len(data) / nBatches

	for i := 0; i < nBatches; i++ {
		dir := copyStoreDir(t, src)
		path := filepath.Join(dir, segName(1))
		mut := append([]byte(nil), data...)
		mut[i*recSize+recordHeader] ^= 0x01 // first payload byte of record i
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		_, _, err := OpenStore(dir, testCh, testKind, StoreOptions{Metrics: reg})
		if err == nil {
			t.Fatalf("record %d: corrupt CRC accepted", i)
		}
		scope := fmt.Sprintf("%d/%d", int(testCh), int(testKind))
		if v := reg.Counter("waldo_wal_replay_corrupt_total", "", "store", scope).Value(); v != 1 {
			t.Errorf("record %d: waldo_wal_replay_corrupt_total = %d, want 1", i, v)
		}
	}
}

// TestRandomAppendCrashReplay drives a store through seeded random
// sequences of appends, retrains, and checkpoints, then crashes it with
// a random torn in-flight frame appended past the durable tail. Recovery
// must reproduce exactly the synced state, every time.
func TestRandomAppendCrashReplay(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, _ := openTestStore(t, dir, nil)

			var (
				want        []dataset.Reading
				wantVersion int
				wantTrained int
				seq         int
			)
			ops := 10 + rng.Intn(20)
			for i := 0; i < ops; i++ {
				switch rng.Intn(5) {
				case 0, 1, 2: // append a batch
					n := 1 + rng.Intn(5)
					rs := testReadings(seq, n)
					seq += n
					s.AppendReadings(context.Background(), rs)
					want = append(want, rs...)
				case 3: // retrain marker over the current store
					wantVersion++
					wantTrained = len(want)
					s.RecordRetrain(context.Background(), wantVersion, wantTrained)
				case 4: // snapshot compaction
					epoch, err := s.BeginCheckpoint()
					if err != nil {
						t.Fatal(err)
					}
					if err := s.CompleteCheckpoint(epoch, len(want), wantVersion, wantTrained); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Crash with a torn in-flight record: a random prefix of a
			// valid frame lands after the durable tail.
			var topSeg string
			names, err := (OSFS{}).ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var topEpoch uint64
			for _, name := range names {
				if e, ok := parseSegName(name); ok && e >= topEpoch {
					topEpoch, topSeg = e, name
				}
			}
			torn := false
			if rng.Intn(2) == 0 {
				full := frame(buildAppendPayload(testReadings(seq, 1+rng.Intn(3))))
				cut := 1 + rng.Intn(len(full)-1)
				f, err := os.OpenFile(filepath.Join(dir, topSeg), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(full[:cut]); err != nil {
					t.Fatal(err)
				}
				f.Close()
				torn = true
			}

			s2, rec, err := OpenStore(dir, testCh, testKind, StoreOptions{})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer s2.Close()
			if rec.Readings.Len() != len(want) || (len(want) > 0 && !reflect.DeepEqual(flat(rec), want)) {
				t.Errorf("recovered %d readings, want %d", rec.Readings.Len(), len(want))
			}
			if rec.ModelVersion != wantVersion || rec.TrainedCount != wantTrained {
				t.Errorf("recovered model v%d/%d, want v%d/%d",
					rec.ModelVersion, rec.TrainedCount, wantVersion, wantTrained)
			}
			if rec.Stats.TornTail != torn {
				t.Errorf("TornTail=%v, want %v", rec.Stats.TornTail, torn)
			}
		})
	}
}
