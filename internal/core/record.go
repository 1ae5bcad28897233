package core

import (
	"encoding/binary"
	"fmt"

	"github.com/wsdetect/waldo/internal/dataset"
)

// Store mutation records (little-endian): one per accepted batch of
// readings and one per model retrained at (version, trained prefix). A
// record is, byte for byte, the payload of one internal/wal log record
// and the record inside one internal/cluster replication frame; both
// read it only through ParseRecord. It does not name its store: a WAL
// holds one store, and a frame carries the key beside the record.
//
//	append  := u8 RecordAppend  | u32 count | count × ReadingWireSize readings
//	retrain := u8 RecordRetrain | u32 model version | u32 trained count
//
// Writers put at most MaxBatchReadings readings in an append record.
// Readers take any count the bytes hold, so an older writer's records
// still replay and apply; the container's size limit bounds those.
const (
	RecordAppend  byte = 1
	RecordRetrain byte = 2
)

// AppendReadingsRecord appends to dst the append record of the first
// min(len(rs), MaxBatchReadings) readings of rs, and returns it with the
// readings left for the next record.
func AppendReadingsRecord(dst []byte, rs []dataset.Reading) ([]byte, []dataset.Reading) {
	n := min(len(rs), MaxBatchReadings)
	return AppendReadingsWire(append(dst, RecordAppend), rs[:n]), rs[n:]
}

// AppendRetrainRecord appends to dst the retrain record of a model at
// version, trained on the store's first trainedCount readings.
func AppendRetrainRecord(dst []byte, version, trainedCount int) []byte {
	dst = append(dst, RecordRetrain)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(version))
	return binary.LittleEndian.AppendUint32(dst, uint32(trainedCount))
}

// Record is a parsed store mutation record.
type Record struct {
	Kind byte // RecordAppend or RecordRetrain
	// Batch is an append record's counted reading batch (see
	// AppendReadingsWire), not yet decoded: the caller decodes it where
	// the readings go (ReadingLog.AppendWire, DecodeReadingsWire).
	Batch []byte
	// Version and TrainedCount are a retrain record's.
	Version, TrainedCount int
}

// ParseRecord checks rec's framing — a known kind, and exactly the bytes
// the kind and an append record's count call for — without decoding a
// reading.
func ParseRecord(rec []byte) (Record, error) {
	switch {
	case len(rec) >= 5 && rec[0] == RecordAppend:
		n := uint64(binary.LittleEndian.Uint32(rec[1:]))
		if have := uint64(len(rec) - 5); have != n*ReadingWireSize {
			return Record{}, fmt.Errorf("core: append record of %d readings has %d of %d bytes", n, have, n*ReadingWireSize)
		}
		return Record{Kind: RecordAppend, Batch: rec[1:]}, nil
	case len(rec) == 9 && rec[0] == RecordRetrain:
		return Record{Kind: RecordRetrain,
			Version:      int(binary.LittleEndian.Uint32(rec[1:])),
			TrainedCount: int(binary.LittleEndian.Uint32(rec[5:]))}, nil
	}
	return Record{}, fmt.Errorf("core: malformed record (%d bytes, kind %x)", len(rec), rec[:min(len(rec), 1)])
}
