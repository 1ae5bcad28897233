package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Reading wire format (little-endian, fixed size). This is the stable
// binary codec of internal/wal's log segments (and of the v1 snapshot
// files an older binary may have left): one reading is always exactly
// ReadingWireSize bytes, so batch sizes are computable up front and a
// torn disk write can never be confused with a shorter valid encoding.
//
//	offset  size  field
//	     0     8  Seq (int64)
//	     8     8  Loc.Lat (float64)
//	    16     8  Loc.Lon (float64)
//	    24     2  Channel (uint16)
//	    26     1  Sensor (uint8)
//	    27     8  Signal.RSSdBm (float64)
//	    35     8  Signal.CFTdB (float64)
//	    43     8  Signal.AFTdB (float64)
//	    51     8  AltM (float64)
//	    59     8  TrueDBm (float64)
//
// The layout is versioned by its container (WAL record / snapshot header
// codec version), not per reading.
const ReadingWireSize = 67

// AppendReadingWire appends the fixed-size encoding of r to dst and
// returns the extended slice.
func AppendReadingWire(dst []byte, r *dataset.Reading) []byte {
	var b [ReadingWireSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(r.Seq)))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Loc.Lat))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Loc.Lon))
	binary.LittleEndian.PutUint16(b[24:], uint16(r.Channel))
	b[26] = byte(r.Sensor)
	binary.LittleEndian.PutUint64(b[27:], math.Float64bits(r.Signal.RSSdBm))
	binary.LittleEndian.PutUint64(b[35:], math.Float64bits(r.Signal.CFTdB))
	binary.LittleEndian.PutUint64(b[43:], math.Float64bits(r.Signal.AFTdB))
	binary.LittleEndian.PutUint64(b[51:], math.Float64bits(r.AltM))
	binary.LittleEndian.PutUint64(b[59:], math.Float64bits(r.TrueDBm))
	return append(dst, b[:]...)
}

// DecodeReadingWire decodes one fixed-size reading from the front of b,
// checking only what every stored reading must satisfy (see
// checkPlacement): WAL, snapshot and replication replay come through
// here, and bootstrap data legitimately carries fields — TrueDBm — that
// an upload may not. What an upload must satisfy on top is
// UploadBatch.Validate's.
func DecodeReadingWire(b []byte) (dataset.Reading, error) {
	if len(b) < ReadingWireSize {
		return dataset.Reading{}, fmt.Errorf("core: reading truncated: %d of %d bytes", len(b), ReadingWireSize)
	}
	r := dataset.Reading{
		Seq: int(int64(binary.LittleEndian.Uint64(b[0:]))),
		Loc: geo.Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		},
		Channel: rfenv.Channel(binary.LittleEndian.Uint16(b[24:])),
		Sensor:  sensor.Kind(b[26]),
		Signal: features.Signal{
			RSSdBm: math.Float64frombits(binary.LittleEndian.Uint64(b[27:])),
			CFTdB:  math.Float64frombits(binary.LittleEndian.Uint64(b[35:])),
			AFTdB:  math.Float64frombits(binary.LittleEndian.Uint64(b[43:])),
		},
		AltM:    math.Float64frombits(binary.LittleEndian.Uint64(b[51:])),
		TrueDBm: math.Float64frombits(binary.LittleEndian.Uint64(b[59:])),
	}
	if err := checkPlacement(&r); err != nil {
		return dataset.Reading{}, err
	}
	return r, nil
}

// checkPlacement validates the fields that decide which store a reading
// belongs to and where it sits in it: channel, sensor family, location.
func checkPlacement(r *dataset.Reading) error {
	if !r.Channel.Valid() {
		return fmt.Errorf("core: reading has invalid channel %d", r.Channel)
	}
	if _, err := sensor.SpecFor(r.Sensor); err != nil {
		return fmt.Errorf("core: reading: %w", err)
	}
	if !r.Loc.Valid() {
		return fmt.Errorf("core: reading has invalid location %v", r.Loc)
	}
	return nil
}

// AppendReadingsWire appends a counted batch (uint32 length prefix, then
// fixed-size readings) to dst.
func AppendReadingsWire(dst []byte, rs []dataset.Reading) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(rs)))
	dst = append(dst, n[:]...)
	for i := range rs {
		dst = AppendReadingWire(dst, &rs[i])
	}
	return dst
}

// DecodeReadingsWire decodes a counted batch from the front of b,
// returning the readings and the unconsumed remainder.
func DecodeReadingsWire(b []byte) ([]dataset.Reading, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("core: reading batch truncated: missing count")
	}
	// The count is untrusted: size the result by what the bytes can hold.
	n := min(int(binary.LittleEndian.Uint32(b)), len(b)/ReadingWireSize)
	return DecodeReadingsWireInto(make([]dataset.Reading, 0, n), b)
}

// DecodeReadingsWireInto decodes a counted batch from the front of b,
// appending the readings to dst and returning the extended slice plus the
// unconsumed remainder. Passing a scratch slice with capacity makes the
// decode allocation-free — the batch ingest handler leans on this (WAL
// replay decodes into the store's chunks, ReadingLog.AppendWire). On
// error dst is returned unchanged.
func DecodeReadingsWireInto(dst []dataset.Reading, b []byte) ([]dataset.Reading, []byte, error) {
	if len(b) < 4 {
		return dst, nil, fmt.Errorf("core: reading batch truncated: missing count")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if need := n * ReadingWireSize; n > len(b)/ReadingWireSize {
		return dst, nil, fmt.Errorf("core: reading batch truncated: %d of %d bytes", len(b), need)
	}
	out := dst
	for i := 0; i < n; i++ {
		r, err := DecodeReadingWire(b)
		if err != nil {
			return dst, nil, fmt.Errorf("core: reading %d: %w", i, err)
		}
		out = append(out, r)
		b = b[ReadingWireSize:]
	}
	return out, b, nil
}
