package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Checkpoint record format (little-endian, always checkpointSize bytes),
// CRC-32 over everything before the trailer:
//
//	magic "WLCP" | u16 format version | u16 channel | u8 sensor |
//	u64 segment epoch | u32 model version | u32 trained count |
//	u64 reading count | u32 CRC-32
var checkpointMagic = [4]byte{'W', 'L', 'C', 'P'}

const (
	checkpointVersion uint16 = 1
	checkpointSize           = 37
	checkpointName           = "checkpoint.bin"
	checkpointTmpName        = "checkpoint.bin.tmp"
)

// checkpoint is what a store looked like at a segment cut: everything
// recovery replays below epoch must add up to exactly this.
type checkpoint struct {
	epoch        uint64
	modelVersion int
	trainedCount int
	readings     int
}

// encodeCheckpoint renders the checkpoint record for a store identity.
func encodeCheckpoint(ch rfenv.Channel, kind sensor.Kind, cp checkpoint) []byte {
	buf := make([]byte, 0, checkpointSize)
	buf = append(buf, checkpointMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, checkpointVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(ch))
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint64(buf, cp.epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.modelVersion))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.trainedCount))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.readings))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeCheckpoint parses and validates a checkpoint record for the given
// store identity.
func decodeCheckpoint(data []byte, ch rfenv.Channel, kind sensor.Kind) (checkpoint, error) {
	var cp checkpoint
	if len(data) != checkpointSize {
		return cp, fmt.Errorf("checkpoint record is %d bytes, want %d", len(data), checkpointSize)
	}
	body, trailer := data[:checkpointSize-4], data[checkpointSize-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return cp, fmt.Errorf("checkpoint record CRC mismatch")
	}
	if [4]byte(body[:4]) != checkpointMagic {
		return cp, fmt.Errorf("bad checkpoint magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != checkpointVersion {
		return cp, fmt.Errorf("unsupported checkpoint version %d", v)
	}
	if got := rfenv.Channel(binary.LittleEndian.Uint16(body[6:])); got != ch {
		return cp, fmt.Errorf("checkpoint is for channel %d, store is channel %d", got, ch)
	}
	if got := sensor.Kind(body[8]); got != kind {
		return cp, fmt.Errorf("checkpoint is for sensor %d, store is sensor %d", got, kind)
	}
	cp.epoch = binary.LittleEndian.Uint64(body[9:])
	cp.modelVersion = int(binary.LittleEndian.Uint32(body[17:]))
	cp.trainedCount = int(binary.LittleEndian.Uint32(body[21:]))
	readings := binary.LittleEndian.Uint64(body[25:])
	if readings > 1<<62 || uint64(cp.trainedCount) > readings {
		return cp, fmt.Errorf("checkpoint record is inconsistent (model v%d trained on %d of %d readings)",
			cp.modelVersion, cp.trainedCount, readings)
	}
	cp.readings = int(readings)
	return cp, nil
}

// writeCheckpoint atomically replaces the store's checkpoint record: temp
// file, fsync, rename, directory fsync. A crash at any point leaves
// either the old or the new record intact, never a partial one.
func writeCheckpoint(dir string, fs FS, ch rfenv.Channel, kind sensor.Kind, cp checkpoint) error {
	tmp := filepath.Join(dir, checkpointTmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint temp: %w", err)
	}
	if _, err := f.Write(encodeCheckpoint(ch, kind, cp)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
