package wal

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
)

// The three decoders recovery trusts with bytes from disk. Each fuzz
// target requires: no panic on any input; memory allocated in proportion
// to the input, never to a count the input merely claims; and for
// accepted input, re-encoding what was decoded gives the input back —
// nothing is dropped, invented or normalised on the way in. The committed
// seeds (testdata/fuzz) carry valid CRCs around hostile fields, the
// inputs a random mutator does not find on its own.

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBudget is what decoding n input bytes may allocate: readings are
// larger in memory than on the wire and the first chunk regrows by
// doubling (under 4 bytes per input byte together), later chunks come
// whole (chunk-sized slack), plus fixed small change.
func allocBudget(n int) uint64 { return uint64(4*n) + 1<<20 }

func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(testCh, testKind, checkpoint{epoch: 7, modelVersion: 3, trainedCount: 400, readings: 512}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data, testCh, testKind)
		if err != nil {
			return
		}
		if cp.trainedCount > cp.readings || cp.readings < 0 {
			t.Fatalf("accepted an impossible checkpoint %+v", cp)
		}
		if re := encodeCheckpoint(testCh, testKind, cp); !bytes.Equal(re, data) {
			t.Fatalf("checkpoint %+v re-encodes to different bytes", cp)
		}
	})
}

func FuzzDecodeSnapshotV1(f *testing.F) {
	f.Add(encodeSnapshot(testCh, testKind, 4, 2, 3, testReadings(0, 3)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *snapshotState
		var err error
		if got := allocatedBy(func() { st, err = decodeSnapshot(data, testCh, testKind) }); got > allocBudget(len(data)) {
			t.Fatalf("decoding a %d-byte snapshot allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		if st.readings.Len() > len(data)/core.ReadingWireSize || st.trainedCount > st.readings.Len() {
			t.Fatalf("a %d-byte snapshot decoded to %d readings, trained on %d", len(data), st.readings.Len(), st.trainedCount)
		}
		re := encodeSnapshot(testCh, testKind, st.epoch, st.modelVersion, st.trainedCount, st.readings.View().Flatten())
		if !bytes.Equal(re, data) {
			t.Fatalf("snapshot re-encodes to different bytes (%d vs %d)", len(re), len(data))
		}
	})
}

func FuzzReplaySegment(f *testing.F) {
	seg := frame(appendRecord(testReadings(0, 2)))
	seg = appendFrame(seg, core.AppendRetrainRecord(nil, 1, 2))
	seg = appendFrame(seg, appendRecord(testReadings(2, 1)))
	f.Add(seg, true)
	f.Add(seg[:len(seg)-5], true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		var (
			rec    Recovered
			stats  ReplayStats
			reenc  []byte
			valid  int64
			torn   bool
			err    error
			m      = newLogMetrics(nil, "fuzz")
			replay = func() {
				valid, torn, err = replayOne(data, last, func(payload []byte) error {
					if err := applyRecord(&rec, payload); err != nil {
						return err
					}
					reenc = appendFrame(reenc, payload)
					return nil
				}, &stats, m)
			}
		)
		// The re-encoding kept for the round trip is the test's own.
		if got := allocatedBy(replay); got > allocBudget(len(data))+uint64(2*len(data)) {
			t.Fatalf("replaying a %d-byte segment allocated %d bytes", len(data), got)
		}
		if valid < 0 || valid > int64(len(data)) || (torn && (!last || err != nil)) {
			t.Fatalf("replay of %d bytes (last=%v): valid=%d torn=%v err=%v", len(data), last, valid, torn, err)
		}
		if err == nil && !torn && valid != int64(len(data)) {
			t.Fatalf("clean replay stopped at %d of %d bytes", valid, len(data))
		}
		if rec.Readings.Len() > len(data)/core.ReadingWireSize || rec.TrainedCount > rec.Readings.Len() {
			t.Fatalf("a %d-byte segment replayed to %d readings, trained on %d", len(data), rec.Readings.Len(), rec.TrainedCount)
		}
		// Every record applied is, re-framed, the bytes it was read from.
		if !bytes.Equal(reenc, data[:len(reenc)]) || (err == nil && int64(len(reenc)) != valid) {
			t.Fatalf("applied records re-frame to %d bytes that differ from the segment's first %d", len(reenc), valid)
		}
	})
}
