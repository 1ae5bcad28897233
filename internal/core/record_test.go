package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
)

// TestRecordRoundTrip pins the store mutation record: both kinds parse
// back to what was encoded, the retrain layout is kind | u32 version |
// u32 trained count, and a short, long or unknown record is refused.
func TestRecordRoundTrip(t *testing.T) {
	rs := []dataset.Reading{codecReading(1), codecReading(2), codecReading(3)}
	rec, rest := AppendReadingsRecord(nil, rs)
	if len(rest) != 0 {
		t.Fatalf("%d readings left over from a batch of %d", len(rest), len(rs))
	}
	if want := append([]byte{RecordAppend}, AppendReadingsWire(nil, rs)...); !bytes.Equal(rec, want) {
		t.Fatalf("append record is %x, want kind then counted batch %x", rec, want)
	}
	r, err := ParseRecord(rec)
	if err != nil || r.Kind != RecordAppend {
		t.Fatalf("ParseRecord(append) = %+v, %v", r, err)
	}
	if got, tail, err := DecodeReadingsWire(r.Batch); err != nil || len(tail) != 0 || !reflect.DeepEqual(got, rs) {
		t.Errorf("append record's batch decodes to %d readings, %d trailing bytes, %v", len(got), len(tail), err)
	}

	rec = AppendRetrainRecord(nil, 7, 3)
	if want := []byte{RecordRetrain, 7, 0, 0, 0, 3, 0, 0, 0}; !bytes.Equal(rec, want) {
		t.Fatalf("retrain record is %x, want %x", rec, want)
	}
	if r, err := ParseRecord(rec); err != nil || r.Kind != RecordRetrain || r.Version != 7 || r.TrainedCount != 3 {
		t.Fatalf("ParseRecord(retrain) = %+v, %v", r, err)
	}

	appendRec, _ := AppendReadingsRecord(nil, rs[:1])
	for name, bad := range map[string][]byte{
		"empty":            nil,
		"short retrain":    rec[:8],
		"long retrain":     append(append([]byte(nil), rec...), 0),
		"append no count":  {RecordAppend, 1, 0},
		"append truncated": appendRec[:len(appendRec)-1],
		"append trailing":  append(append([]byte(nil), appendRec...), 0),
		"count claims 4G":  binary.LittleEndian.AppendUint32([]byte{RecordAppend}, 0xFFFFFFFF),
		"unknown kind":     {3, 0, 0, 0, 0},
	} {
		if r, err := ParseRecord(bad); err == nil {
			t.Errorf("%s: ParseRecord(%x) = %+v, want an error", name, bad, r)
		}
	}
}

// TestReadingsRecordBound: a writer puts at most MaxBatchReadings
// readings in one append record, and looping over what it leaves
// journals the whole batch in order.
func TestReadingsRecordBound(t *testing.T) {
	rs := make([]dataset.Reading, MaxBatchReadings+1)
	for i := range rs {
		rs[i] = codecReading(i % 100)
	}
	var got []dataset.Reading
	records := 0
	for rest := rs; len(rest) > 0; records++ {
		var rec []byte
		rec, rest = AppendReadingsRecord(nil, rest)
		r, err := ParseRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if n := binary.LittleEndian.Uint32(r.Batch); n > MaxBatchReadings {
			t.Fatalf("record %d holds %d readings, bound %d", records, n, MaxBatchReadings)
		}
		if got, _, err = DecodeReadingsWireInto(got, r.Batch); err != nil {
			t.Fatal(err)
		}
	}
	if records != 2 || !reflect.DeepEqual(got, rs) {
		t.Errorf("%d readings journaled as %d records, reading back %d", len(rs), records, len(got))
	}
}
