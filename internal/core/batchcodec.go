package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Batch frame wire format (little-endian): the upload unit of the binary
// ingest path (POST /v1/upload/batch). A frame reuses the fixed-size
// reading codec of this package, so its length is computable from the
// count alone and a receiver can route on individual readings without
// decoding the signal floats:
//
//	offset          size  field
//	     0             4  count (uint32, number of readings)
//	     4   count × 67   readings (ReadingWireSize bytes each)
//	  tail             4  CRC-32 (IEEE) of everything before it
//
// The checksum covers the count too, so a frame whose count was torn or
// tampered with fails the CRC instead of mis-framing the readings. The
// same 67-byte reading encoding travels client → gateway → shard → WAL
// unchanged: the gateway splits mixed-cell frames by copying whole
// reading records, and the dbserver journals the decoded batch as one
// group-commit WAL append, so nothing on the path re-encodes per field.
const (
	// BatchFrameOverhead is the fixed framing cost: count prefix + CRC.
	BatchFrameOverhead = 8

	// MaxBatchReadings bounds a single frame. 65 536 readings is ~4.4 MB
	// on the wire — comfortably inside every body cap in the stack — and
	// anything larger in a count prefix is corruption, not load.
	MaxBatchReadings = 1 << 16
)

// BatchFrameLen returns the encoded size of a frame holding n readings.
func BatchFrameLen(n int) int {
	return BatchFrameOverhead + n*ReadingWireSize
}

// AppendBatchFrame appends one encoded batch frame holding rs to dst and
// returns the extended slice. Callers that reuse dst across flushes get
// an allocation-free encode once the buffer has grown to the working
// batch size.
func AppendBatchFrame(dst []byte, rs []dataset.Reading) ([]byte, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: empty batch frame")
	}
	if len(rs) > MaxBatchReadings {
		return nil, fmt.Errorf("core: batch of %d readings exceeds frame limit %d", len(rs), MaxBatchReadings)
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))
	for i := range rs {
		// The record's channel and sensor fields are narrower than the
		// Go types: refuse what would not decode back to itself.
		r := &rs[i]
		if r.Channel != rfenv.Channel(uint16(r.Channel)) || r.Sensor != sensor.Kind(byte(r.Sensor)) {
			return nil, fmt.Errorf("core: reading %d: channel %d / sensor %d do not fit a batch frame", i, r.Channel, int(r.Sensor))
		}
		dst = AppendReadingWire(dst, r)
	}
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum), nil
}

// EncodeBatchFrame renders one batch frame into a fresh right-sized
// buffer.
func EncodeBatchFrame(rs []dataset.Reading) ([]byte, error) {
	return AppendBatchFrame(make([]byte, 0, BatchFrameLen(len(rs))), rs)
}

// CheckBatchFrame verifies the framing of the frame at the front of b
// without decoding a reading: header present, a count between 1 and
// MaxBatchReadings, every byte the count promises, and the CRC. It
// returns the count and the unconsumed remainder of b. It is the one
// framing check in the stack — DecodeBatchFrame runs it before touching
// a reading and the gateway runs it before routing on fixed offsets — so
// every tier rejects the same bytes, each violation with its own
// operator-readable error.
func CheckBatchFrame(b []byte) (n int, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("core: batch frame truncated: %d of 4 header bytes", len(b))
	}
	n = int(binary.LittleEndian.Uint32(b))
	if n == 0 {
		return 0, nil, fmt.Errorf("core: batch frame holds no readings")
	}
	if n > MaxBatchReadings {
		return 0, nil, fmt.Errorf("core: batch frame count %d exceeds limit %d", n, MaxBatchReadings)
	}
	total := BatchFrameLen(n)
	if len(b) < total {
		return 0, nil, fmt.Errorf("core: batch frame truncated: %d of %d bytes for %d readings", len(b), total, n)
	}
	if got, want := crc32.ChecksumIEEE(b[:total-4]), binary.LittleEndian.Uint32(b[total-4:]); got != want {
		return 0, nil, fmt.Errorf("core: batch frame CRC mismatch (%08x != %08x)", got, want)
	}
	return n, b[total:], nil
}

// DecodeBatchFrame decodes exactly one batch frame from the front of b,
// appending the readings to dst (which may be nil, or a pooled scratch
// slice — reusing its capacity makes the decode allocation-free per
// reading). It returns the extended slice and the unconsumed remainder
// of b. Framing is CheckBatchFrame's; on any error dst is returned
// unchanged — a half-decoded frame never leaks into the caller's batch.
func DecodeBatchFrame(dst []dataset.Reading, b []byte) ([]dataset.Reading, []byte, error) {
	n, rest, err := CheckBatchFrame(b)
	if err != nil {
		return dst, nil, err
	}
	out, _, err := DecodeReadingsWireInto(dst, b[:4+n*ReadingWireSize])
	if err != nil {
		return dst, nil, err
	}
	return out, rest, nil
}
