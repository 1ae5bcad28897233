package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// v1 snapshot file format (little-endian), CRC-32 over everything before
// the trailer:
//
//	magic "WLSN" | u16 codec version | u16 channel | u8 sensor |
//	u64 segment epoch | u32 model version | u32 trained count |
//	u32 reading count | readings (fixed-size core codec) | u32 CRC-32
//
// Binaries from before the checkpoint record rewrote this file — the
// whole store — at every checkpoint and deleted the segments below its
// epoch. Nothing writes it
// any more; one found in a store directory is read as the immutable base
// the segments at or above its epoch continue.
var snapMagic = [4]byte{'W', 'L', 'S', 'N'}

const (
	snapVersion  uint16 = 1
	snapshotName        = "snapshot.bin"
	snapHeader          = 25 // bytes before the counted readings
)

// snapshotState is the decoded content of a v1 snapshot file.
type snapshotState struct {
	epoch        uint64
	modelVersion int
	trainedCount int
	readings     core.ReadingLog
}

// decodeSnapshot parses and validates a v1 snapshot file for the given
// store identity, decoding its readings straight into store chunks.
func decodeSnapshot(data []byte, ch rfenv.Channel, kind sensor.Kind) (*snapshotState, error) {
	if len(data) < snapHeader+4 {
		return nil, fmt.Errorf("wal: snapshot truncated: %d bytes", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	if [4]byte(body[:4]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != snapVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	if got := rfenv.Channel(binary.LittleEndian.Uint16(body[6:])); got != ch {
		return nil, fmt.Errorf("wal: snapshot is for channel %d, store is channel %d", got, ch)
	}
	if got := sensor.Kind(body[8]); got != kind {
		return nil, fmt.Errorf("wal: snapshot is for sensor %d, store is sensor %d", got, kind)
	}
	st := &snapshotState{
		epoch:        binary.LittleEndian.Uint64(body[9:]),
		modelVersion: int(binary.LittleEndian.Uint32(body[17:])),
		trainedCount: int(binary.LittleEndian.Uint32(body[21:])),
	}
	rest, err := st.readings.AppendWire(body[snapHeader:])
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot readings: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wal: snapshot has %d trailing bytes", len(rest))
	}
	if st.trainedCount > st.readings.Len() {
		return nil, fmt.Errorf("wal: snapshot trained on %d of %d readings", st.trainedCount, st.readings.Len())
	}
	return st, nil
}
